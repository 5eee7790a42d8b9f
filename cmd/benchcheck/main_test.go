package main

import (
	"strings"
	"testing"
)

const baseline = `{
  "benchmarks": [
    {"name": "BenchmarkBatchedDelete/k=1", "ns_per_op": 40000, "msgs_per_batch": 20.0, "rounds_per_batch": 6.0},
    {"name": "BenchmarkBandwidthRepair/B=1", "ns_per_op": 300000, "msgs_per_repair": 400.0},
    {"name": "BenchmarkPhysicalSnapshot/incremental", "ns_per_op": 1000000},
    {"name": "BenchmarkTickSteadyState", "ns_per_op": 20000, "msgs_per_tick": 3.0, "allocs_per_op": 15, "bytes_per_op": 2200},
    {"name": "BenchmarkCoalescedChurn/on", "ns_per_op": 20000000, "msgs_per_drain": 5500.0, "coalcancelled_per_drain": 30.0}
  ]
}`

func run(t *testing.T, input string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := check([]byte(baseline), strings.NewReader(input), 0.30, 0.05, 0.10, &out)
	return out.String(), err
}

func TestPassesWithinTolerance(t *testing.T) {
	out, err := run(t, `
goos: linux
BenchmarkBatchedDelete/k=1-8    50    45000 ns/op    20.5 msgs/batch    6.000 rounds/batch    12000 B/op    150 allocs/op
BenchmarkBandwidthRepair/B=1-8  50    310000 ns/op   400.0 msgs/repair
PASS
`)
	if err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, out)
	}
	if !strings.Contains(out, "skip") || !strings.Contains(out, "BenchmarkPhysicalSnapshot/incremental") {
		t.Fatalf("baseline not in run was not reported as skipped:\n%s", out)
	}
}

func TestFailsOnNsRegression(t *testing.T) {
	// 40000 * 1.30 = 52000; 60000 is a regression.
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    60000 ns/op    20.0 msgs/batch
`)
	if err == nil {
		t.Fatalf("synthetic ns/op regression passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "ns_per_op regressed") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnMessageRegression(t *testing.T) {
	// 20 * 1.05 = 21; 22 messages is a protocol regression even though
	// the wall time improved.
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    30000 ns/op    22.0 msgs/batch
`)
	if err == nil {
		t.Fatalf("synthetic message-count regression passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "msgs_per_batch regressed") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnMissingMetric(t *testing.T) {
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    30000 ns/op    6.000 rounds/batch
`)
	if err == nil {
		t.Fatalf("run missing a gated baseline metric passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "missing from run") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnNoOverlap(t *testing.T) {
	if _, err := run(t, "BenchmarkSomethingElse-8  10  5 ns/op\n"); err == nil {
		t.Fatal("zero-overlap run passed: the gate would be vacuous")
	}
}

func TestImprovementsPass(t *testing.T) {
	// Faster wall time passes outright; message counts may drift only
	// within the two-sided tolerance.
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    20000 ns/op    19.5 msgs/batch    6.000 rounds/batch
BenchmarkBandwidthRepair/B=1-8  50    200000 ns/op   399.0 msgs/repair
`)
	if err != nil {
		t.Fatalf("improvement flagged as regression: %v\n%s", err, out)
	}
}

func TestFailsOnAllocRegression(t *testing.T) {
	// 15 * 1.15 = 17.25 allocs allowed; 25 is an allocation regression
	// even with wall time and messages unchanged.
	out, err := run(t, `
BenchmarkTickSteadyState-8    50    20000 ns/op    3.000 msgs/tick    2200 B/op    25 allocs/op
`)
	if err == nil {
		t.Fatalf("synthetic allocs/op regression passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "allocs_per_op regressed") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnBytesRegression(t *testing.T) {
	// 2200 * 1.15 = 2530 B/op allowed; 4000 fails.
	out, err := run(t, `
BenchmarkTickSteadyState-8    50    20000 ns/op    3.000 msgs/tick    4000 B/op    15 allocs/op
`)
	if err == nil {
		t.Fatalf("synthetic B/op regression passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "bytes_per_op regressed") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnAllocDeviationBelow(t *testing.T) {
	// A drop to 2 allocs/op means the recorded diet is stale: the gate
	// demands a re-record, like the deterministic message counts.
	out, err := run(t, `
BenchmarkTickSteadyState-8    50    20000 ns/op    3.000 msgs/tick    2200 B/op    2 allocs/op
`)
	if err == nil {
		t.Fatalf("alloc count fell far below baseline and passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "allocs_per_op deviates below baseline") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestAllocsWithinTolerancePass(t *testing.T) {
	out, err := run(t, `
BenchmarkTickSteadyState-8    50    21000 ns/op    3.050 msgs/tick    2300 B/op    16 allocs/op
`)
	if err != nil {
		t.Fatalf("in-tolerance alloc metrics flagged: %v\n%s", err, out)
	}
}

func TestGatesCoalesceCounters(t *testing.T) {
	// The coalescer's decision counters are deterministic like message
	// counts: 30 * 0.95 = 28.5 cancellations, so 20 means the admission
	// queue stopped eliding work the baseline records.
	out, err := run(t, `
BenchmarkCoalescedChurn/on-8    50    20000000 ns/op    5500.0 msgs/drain    20.0 coalcancelled/drain
`)
	if err == nil {
		t.Fatalf("coalesce counter fell 33%% and passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "coalcancelled_per_drain deviates below baseline") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestFailsOnMessageDeviationBelow(t *testing.T) {
	// 20 * 0.95 = 19; a drop to 15 means the protocol silently stopped
	// doing work the baseline records — stale baseline, not a win.
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    30000 ns/op    15.0 msgs/batch
`)
	if err == nil {
		t.Fatalf("deterministic message count fell 25%% and passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "deviates below baseline") {
		t.Fatalf("wrong failure: %v", err)
	}
}

func TestComparesMedianOfRepeatedSamples(t *testing.T) {
	// Three samples of one benchmark (go test -count=3): only the last
	// regresses (60000 > 52000 ns allowed, 22 > 21 msgs allowed), so the
	// medians — 45000 ns and 20.2 msgs — pass.
	out, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    45000 ns/op    20.2 msgs/batch    6.000 rounds/batch
BenchmarkBatchedDelete/k=1-8    50    41000 ns/op    20.0 msgs/batch    6.000 rounds/batch
BenchmarkBatchedDelete/k=1-8    50    60000 ns/op    22.0 msgs/batch    6.000 rounds/batch
`)
	if err != nil {
		t.Fatalf("median of repeated samples failed on one outlier: %v\n%s", err, out)
	}
	// And a median that regresses still fails.
	if _, err := run(t, `
BenchmarkBatchedDelete/k=1-8    50    60000 ns/op    20.0 msgs/batch    6.000 rounds/batch
BenchmarkBatchedDelete/k=1-8    50    41000 ns/op    20.0 msgs/batch    6.000 rounds/batch
BenchmarkBatchedDelete/k=1-8    50    58000 ns/op    20.0 msgs/batch    6.000 rounds/batch
`); err == nil || !strings.Contains(err.Error(), "ns_per_op regressed") {
		t.Fatalf("regressed median passed or failed wrongly: %v", err)
	}
}
