// Command benchcheck compares `go test -bench` output against a
// recorded baseline (BENCH_dist.json, BENCH_graph.json,
// BENCH_transport.json, BENCH_wirenet.json) and fails on regressions. It is
// the CI gate for the perf numbers the repo publishes: wall-time
// (ns/op) may drift with runner noise, so it gets a loose tolerance;
// protocol message counts are deterministic under a pinned -benchtime,
// so they get a tight one.
//
// Usage:
//
//	go test -run '^$' -bench ... -benchtime=50x ./internal/dist | \
//	    benchcheck -baseline BENCH_dist.json [-ns-tol 0.30] [-msgs-tol 0.05]
//
// A benchmark run several times (-count=N) is compared by the median
// of its samples, metric by metric. Baseline benchmarks absent from
// the input are skipped (the CI job runs a subset); input benchmarks
// absent from the baseline are reported so a missing re-record is
// visible. At least one comparison must happen or the check fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_dist.json", "baseline JSON file")
		inputPath    = flag.String("input", "-", "bench output to check (- = stdin)")
		nsTol        = flag.Float64("ns-tol", 0.30, "allowed fractional ns/op regression")
		msgsTol      = flag.Float64("msgs-tol", 0.05, "allowed fractional message-count regression")
		allocsTol    = flag.Float64("allocs-tol", 0.10, "allowed fractional allocs/op and B/op deviation")
	)
	flag.Parse()

	baseline, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var input io.Reader = os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		input = f
	}
	if err := check(baseline, input, *nsTol, *msgsTol, *allocsTol, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchcheck: %v\n", err)
	os.Exit(1)
}

// baselineFile mirrors BENCH_dist.json: metadata plus one metrics
// object per benchmark. Metric fields beyond "name" are numeric and
// compared by key.
type baselineFile struct {
	Benchmarks []map[string]any `json:"benchmarks"`
}

// benchLine matches one result line of `go test -bench` output:
// name, iteration count, then (value, unit) pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.+)$`)

// parseBench extracts name -> metric key -> value from bench output.
// The trailing -N GOMAXPROCS suffix is stripped from names; units map
// to the baseline's snake_case keys (ns/op -> ns_per_op, msgs/batch ->
// msgs_per_batch, B/op -> bytes_per_op, ...). A name that appears more
// than once (go test -count=N) yields, per metric, the median of its
// samples, so one noisy run neither fails nor passes the gate alone.
func parseBench(r io.Reader) (map[string]map[string]float64, error) {
	samples := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name := m[1]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			return nil, fmt.Errorf("odd metric fields in %q", sc.Text())
		}
		metrics := samples[name]
		if metrics == nil {
			metrics = make(map[string][]float64, len(fields)/2)
			samples[name] = metrics
		}
		for i := 0; i < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			key := metricKey(fields[i+1])
			metrics[key] = append(metrics[key], v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]float64, len(samples))
	for name, metrics := range samples {
		out[name] = make(map[string]float64, len(metrics))
		for key, vs := range metrics {
			out[name][key] = median(vs)
		}
	}
	return out, nil
}

// median returns the middle value of vs, or the mean of the two middle
// values when their number is even. It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

func metricKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	default:
		return strings.ReplaceAll(unit, "/", "_per_")
	}
}

// tolerance returns the allowed fractional deviation for a metric key
// and whether the check is two-sided. ns/op is one-sided (faster is
// fine, runners are noisy); message counts, round counts, and the
// in-band coordination counters (sync/election rounds) are
// deterministic protocol properties at a pinned -benchtime, so moving
// in *either* direction beyond tolerance means the protocol changed
// and the baseline is stale. The coalescing decision counters
// (coalcancelled/coalmerged/coalsaved) are deterministic the same way
// — the admission queue reads only driver-side state — and share the
// message tolerance. Allocation counts (allocs/op, B/op) are
// gated the same two-sided way — an allocation regression is a perf
// bug, and a silent improvement means the recorded diet is stale —
// but at their own tolerance: map-growth timing adds a little honest
// run-to-run jitter that exact message counts do not have.
// Informational metrics return -1.
func tolerance(key string, nsTol, msgsTol, allocsTol float64) (tol float64, twoSided bool) {
	switch {
	case key == "ns_per_op":
		return nsTol, false
	case key == "allocs_per_op", key == "bytes_per_op":
		return allocsTol, true
	case strings.HasPrefix(key, "msgs_"),
		strings.HasPrefix(key, "rounds_"),
		strings.HasPrefix(key, "syncrounds_"),
		strings.HasPrefix(key, "electionrounds_"),
		strings.HasPrefix(key, "auditmsgs_"),
		strings.HasPrefix(key, "auditrounds_"),
		strings.HasPrefix(key, "coal"):
		return msgsTol, true
	default:
		return -1, false
	}
}

func check(baseline []byte, input io.Reader, nsTol, msgsTol, allocsTol float64, out io.Writer) error {
	var base baselineFile
	if err := json.Unmarshal(baseline, &base); err != nil {
		return fmt.Errorf("parsing baseline: %w", err)
	}
	got, err := parseBench(input)
	if err != nil {
		return fmt.Errorf("parsing bench output: %w", err)
	}

	compared := 0
	var failures []string
	covered := make(map[string]bool)
	for _, entry := range base.Benchmarks {
		name, _ := entry["name"].(string)
		if name == "" {
			return fmt.Errorf("baseline entry without name: %v", entry)
		}
		cur, ran := got[name]
		if !ran {
			fmt.Fprintf(out, "skip  %-40s not in this run\n", name)
			continue
		}
		covered[name] = true
		keys := make([]string, 0, len(entry))
		for k := range entry {
			if k != "name" {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			want, ok := entry[key].(float64)
			if !ok {
				continue // non-numeric metadata
			}
			tol, twoSided := tolerance(key, nsTol, msgsTol, allocsTol)
			if tol < 0 {
				continue
			}
			have, ok := cur[key]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: metric %s in baseline but missing from run", name, key))
				continue
			}
			compared++
			upper := want * (1 + tol)
			lower := want * (1 - tol)
			status := "ok  "
			switch {
			case have > upper:
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %s regressed: %.4g > baseline %.4g (+%.0f%% allowed)",
						name, key, have, want, 100*tol))
			case twoSided && have < lower:
				status = "FAIL"
				failures = append(failures,
					fmt.Sprintf("%s: %s deviates below baseline: %.4g < %.4g (±%.0f%%; deterministic counts moving either way mean the protocol changed — re-record the baseline)",
						name, key, have, want, 100*tol))
			}
			fmt.Fprintf(out, "%s  %-40s %-18s %12.4g  baseline %12.4g  limit %12.4g\n",
				status, name, key, have, want, upper)
		}
	}
	for name := range got {
		if !covered[name] {
			fmt.Fprintf(out, "note  %-40s has no baseline (add it to the JSON on the next re-record)\n", name)
		}
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark overlapped the baseline — wrong -bench filter or stale names")
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s):\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(out, "benchcheck: %d comparisons passed\n", compared)
	return nil
}
