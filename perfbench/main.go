// Command perfbench is the repository's churn benchmark. For one
// workload and seed it generates powerlaw initial networks and op
// schedules, drives dist.Simulation through each schedule in
// closed-loop waves from a single goroutine, checks the healed
// networks, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with -trace 1 they are the per-layer ones, taken from
// traced cycles that alternate with untraced ones. README.md describes
// the workloads and metrics.
//
// Usage:
//
//	go build -o perfbench . && ./perfbench -workload flap-burst -seed 1 -seconds 10 -trace 0
//
// run.sh builds and runs it from the repository root.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/graph"
	"repro/internal/wirenet"
)

// Sizes shared by every workload. A run averages over inputsPerRun
// seeded networks of initialNodes nodes, each with its own schedule.
const (
	initialNodes   = 16384
	inputsPerRun   = 4
	wireShards     = 2
	coalesceWindow = 4
	maxDegreeRatio = 4 // the hard degree bound of DESIGN.md

	// runDeadline bounds a run's own work well inside the 180 s a run
	// may take: past it, an engine that never goes idle fails the run.
	runDeadline = 150 * time.Second
)

// workload fixes everything about a benchmark input except its seed.
// The op count of an episode is part of the workload: per-op cost
// grows as deletions accumulate Reconstruction Trees, so a run repeats
// fixed-size episodes instead of streaming for as long as it is given,
// and a parent and a change always do identical work.
type workload struct {
	name     string
	mix      opMix
	wire     bool // wirenet with wireShards worker processes, else simnet
	coalesce bool // coalescing admission queue with coalesceWindow
	audit    bool // self-stabilizing audit at production pacing
	ops      int  // ops per episode, batch members included
	wave     int  // ops submitted back to back per closed-loop wave
	ticks    int  // > 0: tick exactly this often after each wave instead of until idle
}

// opMix names a schedule generator (see schedule.go).
type opMix int

const (
	churnMix   opMix = iota // 50/50 inserts and stratified deletes
	visitorMix              // short-lived peers joining and leaving
	flapMix                 // flap pairs, neighbour deletes, DeleteBatch bursts
)

// The flap mix: the share of insert-then-delete pairs, and every
// burstEvery-th wave a blocking DeleteBatch of failures in burstSources
// places.
const (
	flapShare    = 0.4
	burstEvery   = 8
	burstSources = 3
)

// workloads are the benchmark's inputs; BENCHMARK.json records why each
// was chosen and which layers it stresses. churn-wire's schedule also
// runs on simnet in every run, as its transport-equivalence reference.
var workloads = []workload{
	{name: "churn-wire", mix: churnMix, wire: true, ops: 2000, wave: 32},
	{name: "quiet-audit", mix: visitorMix, audit: true, ops: 512, wave: 1, ticks: 16},
	{name: "flap-burst", mix: flapMix, coalesce: true, ops: 3000, wave: 32},
}

func main() {
	wirenet.MaybeWorker() // wire workers re-execute this binary
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: churn-wire, quiet-audit or flap-burst")
	seed := fs.Int64("seed", 1, "seed the inputs are derived from")
	seconds := fs.Int("seconds", 10, "how long to keep repeating cycles over the inputs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from traced cycles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	r, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, r, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one seeded network and the workload's schedule over it.
type input struct {
	seed int64
	g0   *graph.Graph
	sc   *schedule
}

// newInputs derives the run's inputsPerRun inputs from its seed. Each
// input is a fresh network with its own schedule: a run averages over
// several inputs so that one network's quirks do not set the metrics.
func newInputs(w workload, seed int64) []input {
	ins := make([]input, inputsPerRun)
	for j := range ins {
		s := seed*inputsPerRun + int64(j)
		g0 := initialGraph(s, initialNodes)
		ins[j] = input{seed: s, g0: g0, sc: newSchedule(w, s, g0)}
	}
	return ins
}

// runResult is everything one invocation measured. A cycle runs every
// input once; cycles[c][j] is input j's episode in untraced cycle c.
type runResult struct {
	w      workload
	inputs []input
	cycles [][]*episode
	traced [][]*episode
	refs   []*episode // churn-wire: each input's schedule on simnet
	err    error      // a failed cross-episode check

	// peakRSS is the process's peak resident set over the measured
	// cycles, read before churn-wire's simnet reference cycle runs.
	peakRSS float64
}

// ops is the number of ops one cycle issues.
func (r *runResult) ops() int {
	n := 0
	for _, in := range r.inputs {
		n += in.sc.ops
	}
	return n
}

// measure repeats cycles while another one fits in the budget (at least
// one; with tracing, at least one each way, alternating), then checks
// that every repeat of an input healed to the same network with the
// same traffic. Only the first cycle of each kind runs the full Verify:
// later repeats must reproduce its healed-graph hash exactly.
func measure(w workload, seed int64, budget time.Duration, trace bool) (*runResult, error) {
	r := &runResult{w: w, inputs: newInputs(w, seed)}
	start := time.Now()
	deadline := start.Add(runDeadline)
	var longest time.Duration
	for c := 0; ; c++ {
		traced := trace && c%2 == 1
		verify := c == 0 || (traced && len(r.traced) == 0)
		t := time.Now()
		cycle, err := runCycle(w, r.inputs, w.wire, traced, verify, deadline)
		if err != nil {
			return nil, err
		}
		longest = max(longest, time.Since(t))
		if traced {
			r.traced = append(r.traced, cycle)
		} else {
			r.cycles = append(r.cycles, cycle)
		}
		if (!trace || len(r.traced) > 0) && time.Since(start)+longest > budget {
			break
		}
	}
	r.peakRSS = peakRSSMB()
	if w.wire {
		refs, err := runCycle(w, r.inputs, false, false, true, deadline)
		if err != nil {
			return nil, err
		}
		r.refs = refs
	}
	r.err = r.crossCheck()
	return r, nil
}

func runCycle(w workload, inputs []input, onWire, traced, verify bool, deadline time.Time) ([]*episode, error) {
	cycle := make([]*episode, len(inputs))
	for j, in := range inputs {
		ep, err := runEpisode(w, in, onWire, traced, verify, deadline)
		if err != nil {
			return nil, fmt.Errorf("input %d: %w", in.seed, err)
		}
		cycle[j] = ep
	}
	return cycle, nil
}

// crossCheck holds every repeat of an input to its first episode: the
// same healed-graph hash and, on simnet, the same message and round
// counts. Traced episodes are held to the same standard, which is the
// tracing wrapper's fidelity check. On churn-wire the simnet run of the
// same schedule must heal to the same hash, the repository's
// transport-equivalence oracle. Wire message counts are not held
// exact: TCP timing can change how many coordination messages a repair
// needs (one in 55 542 was seen) without changing what it heals to.
func (r *runResult) crossCheck() error {
	for j, in := range r.inputs {
		first := r.cycles[0][j]
		for _, cycle := range append(append([][]*episode{}, r.cycles...), r.traced...) {
			ep := cycle[j]
			if ep.hash != first.hash {
				return fmt.Errorf("input %d: a repeat healed to %v, the first to %v", in.seed, ep.hash, first.hash)
			}
			if !r.w.wire && (ep.traffic.Messages != first.traffic.Messages || ep.rounds != first.rounds) {
				return fmt.Errorf("input %d: a repeat took %d messages in %d rounds, the first %d in %d",
					in.seed, ep.traffic.Messages, ep.rounds, first.traffic.Messages, first.rounds)
			}
			// The ledger's top-level spans must cover the traced wall
			// time; what they miss is the driver loop itself.
			if l := ep.led; l != nil {
				if gap := ep.drive - l.covered(); gap < 0 || gap > ep.drive/10 {
					return fmt.Errorf("input %d: layer spans cover %v of %v traced wall time", in.seed, l.covered(), ep.drive)
				}
			}
		}
		if r.refs == nil {
			continue
		}
		ref := r.refs[j]
		if ref.err != nil {
			return fmt.Errorf("input %d on simnet: %w", in.seed, ref.err)
		}
		if ref.hash != first.hash {
			return fmt.Errorf("input %d: wirenet healed to %v, simnet to %v", in.seed, first.hash, ref.hash)
		}
	}
	return nil
}
