package main

import (
	"os"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/wirenet"
)

// TestMain lets the wire tests' hubs re-execute this test binary as
// their workers.
func TestMain(m *testing.M) {
	wirenet.MaybeWorker()
	os.Exit(m.Run())
}

// smallInput is a quick version of a workload's input.
func smallInput(t *testing.T, name string) (workload, input) {
	t.Helper()
	w, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	// Long enough for a flap-burst schedule to reach a DeleteBatch wave.
	w.ops = min(w.ops, max(160, (burstEvery+1)*w.wave))
	g0 := initialGraph(1, 512)
	return w, input{seed: 1, g0: g0, sc: newSchedule(w, 1, g0)}
}

func runOK(t *testing.T, w workload, in input, onWire, traced bool) *episode {
	t.Helper()
	ep, err := runEpisode(w, in, onWire, traced, true, time.Now().Add(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if ep.err != nil || ep.failed != 0 {
		t.Fatalf("%s (wire %v, traced %v): %d failed ops: %v", w.name, onWire, traced, ep.failed, ep.err)
	}
	return ep
}

// TestTracingKeepsBehaviour holds the timing wrapper to the untraced
// run on simnet: identical messages, rounds and healed graph, with the
// layer spans inside the traced wall time. On flap-burst the traffic
// comparison also covers the stats banked across DeleteBatch's reset.
func TestTracingKeepsBehaviour(t *testing.T) {
	for _, name := range []string{"churn-wire", "quiet-audit", "flap-burst"} {
		t.Run(name, func(t *testing.T) {
			w, in := smallInput(t, name)
			plain := runOK(t, w, in, false, false)
			traced := runOK(t, w, in, false, true)
			if plain.traffic != traced.traffic || plain.rounds != traced.rounds || plain.hash != traced.hash {
				t.Fatalf("traced run diverged: %d msgs, %d rounds, %v; untraced %d msgs, %d rounds, %v",
					traced.traffic.Messages, traced.rounds, traced.hash,
					plain.traffic.Messages, plain.rounds, plain.hash)
			}
			l := traced.led
			if l.covered() > traced.drive || l.handler.n == 0 || l.pulseInTick.n != traced.ticks {
				t.Fatalf("ledger: %v of %v covered, %d handler calls, %d pulses inside %d ticks",
					l.covered(), traced.drive, l.handler.n, l.pulseInTick.n, traced.ticks)
			}
			if w.mix == flapMix && (l.batch.n == 0 || l.pulse.n == l.pulseInTick.n) {
				t.Fatalf("flap-burst ran %d DeleteBatch calls pulsing %d times", l.batch.n, l.pulse.n-l.pulseInTick.n)
			}
		})
	}
}

func TestLowerQuartile(t *testing.T) {
	for _, c := range []struct {
		in   []time.Duration
		want time.Duration
	}{
		{[]time.Duration{7}, 7},
		{[]time.Duration{500, 100, 400, 200, 300}, 200},
		{[]time.Duration{400, 300, 200, 100}, 175},
	} {
		if got := lowerQuartile(c.in); got != c.want {
			t.Errorf("lowerQuartile = %v, want %v", got, c.want)
		}
	}
}

// TestTracedWire checks the wrapper on the wire backend: dist's
// capability probes still reach the hub's workers, and the traced wire
// run heals to the same graph as simnet on the same schedule.
func TestTracedWire(t *testing.T) {
	w, in := smallInput(t, "churn-wire")
	hub, err := wirenet.New(wirenet.Config{Shards: wireShards})
	if err != nil {
		t.Fatal(err)
	}
	sim := dist.NewSimulationOn(in.g0, newTracedNet(hub, newLedger()))
	if pids := sim.WorkerPIDs(); len(pids) != wireShards {
		t.Errorf("WorkerPIDs through the wrapper = %v, want %d workers", pids, wireShards)
	}
	if err := closeSim(sim); err != nil {
		t.Fatal(err)
	}

	wire := runOK(t, w, in, true, true)
	ref := runOK(t, w, in, false, false)
	if wire.hash != ref.hash {
		t.Fatalf("traced wire healed to %v, simnet to %v", wire.hash, ref.hash)
	}
}
