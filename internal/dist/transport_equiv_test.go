package dist_test

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
)

// The transport differential oracle: the same op schedule replayed on
// the deterministic round simulator (simnet) and on the channel
// backend (channet, concurrent goroutines and seeded deterministic
// scheduler alike) must heal bit-identically — same physical network,
// same G', same submission-aligned outcome for every operation. This
// is the protocol-level proof that nothing in the repair secretly
// depends on round synchrony; the simnet run is the oracle because it
// is itself differentially tied to the reference engine
// (TestEquivalenceWithCore).
//
// These tests live in package dist_test: they drive dist through
// internal/sched, which imports dist, so an in-package test would be
// an import cycle.

// equivTopologies are the 5 topology families every differential
// suite in this repo covers.
var equivTopologies = []struct {
	name string
	gen  func(rng *rand.Rand) *graph.Graph
}{
	{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }},
	{"path", func(*rand.Rand) *graph.Graph { return graph.Path(20) }},
	{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }},
	{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }},
	{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }},
}

// genValidSchedule builds a schedule that tracks serialized liveness,
// so nearly every op applies; a pinch of deliberately-dead targets
// exercises identical rejection on both backends. batches > 0 mixes
// in blocking DeleteBatch waves.
func genValidSchedule(g0 *graph.Graph, ops int, batchEvery int, rng *rand.Rand) sched.Schedule {
	alive := append([]sched.NodeID(nil), g0.Nodes()...)
	dead := []sched.NodeID(nil)
	next := sched.NodeID(10_000)
	kill := func(v sched.NodeID) {
		for i, u := range alive {
			if u == v {
				alive = append(alive[:i], alive[i+1:]...)
				break
			}
		}
		dead = append(dead, v)
	}
	var sch sched.Schedule
	for i := 0; i < ops && len(alive) > 1; i++ {
		gap := rng.Intn(4)
		switch {
		case batchEvery > 0 && i%batchEvery == batchEvery-1 && len(alive) > 4:
			k := 2 + rng.Intn(3)
			var batch []sched.NodeID
			for _, idx := range rng.Perm(len(alive))[:k] {
				batch = append(batch, alive[idx])
			}
			sch.Ops = append(sch.Ops, sched.Op{Kind: sched.OpBatch, Batch: batch})
			for _, v := range batch {
				kill(v)
			}
		case rng.Float64() < 0.25:
			v := next
			next++
			k := 1 + rng.Intn(3)
			if k > len(alive) {
				k = len(alive)
			}
			var nbrs []sched.NodeID
			for _, idx := range rng.Perm(len(alive))[:k] {
				nbrs = append(nbrs, alive[idx])
			}
			sch.Ops = append(sch.Ops, sched.Op{Kind: sched.OpInsert, V: v, Nbrs: nbrs, Gap: gap})
			alive = append(alive, v)
		case len(dead) > 0 && rng.Float64() < 0.1:
			// Deliberately dead target: both backends must reject with
			// the same error at the same serialized position.
			v := dead[rng.Intn(len(dead))]
			sch.Ops = append(sch.Ops, sched.Op{Kind: sched.OpDelete, V: v, Gap: gap})
		default:
			v := alive[rng.Intn(len(alive))]
			sch.Ops = append(sch.Ops, sched.Op{Kind: sched.OpDelete, V: v, Gap: gap})
			kill(v)
		}
	}
	return sch
}

// diffTransports replays one schedule on simnet (the oracle), on the
// concurrent channel backend, and on two seeded deterministic
// interleavings, asserting bit-identical healing across all of them.
func diffTransports(t *testing.T, gen func(rng *rand.Rand) *graph.Graph, topoSeed int64, sch sched.Schedule, mode sched.Mode) {
	t.Helper()
	g0 := gen(rand.New(rand.NewSource(topoSeed)))
	ref, err := sched.Run(g0, sched.Config{Backend: sched.Simnet, Mode: mode}, sch)
	if err != nil {
		t.Fatalf("simnet replay: %v", err)
	}
	g0 = gen(rand.New(rand.NewSource(topoSeed)))
	got, err := sched.Run(g0, sched.Config{Backend: sched.Channel, Mode: mode}, sch)
	if err != nil {
		t.Fatalf("chan replay: %v", err)
	}
	if err := sched.Diff(ref, got); err != nil {
		t.Fatalf("simnet vs chan: %v", err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		g0 = gen(rand.New(rand.NewSource(topoSeed)))
		got, err := sched.Run(g0, sched.Config{Backend: sched.ChannelSeeded, Seed: seed, Mode: mode}, sch)
		if err != nil {
			t.Fatalf("chan-seeded(%d) replay: %v", seed, err)
		}
		if err := sched.Diff(ref, got); err != nil {
			t.Fatalf("simnet vs chan-seeded(%d): %v", seed, err)
		}
	}
}

// TestTransportEquivalenceBlocking: one-op-at-a-time churn over the 5
// topology families — every repair runs to quiescence on its own.
func TestTransportEquivalenceBlocking(t *testing.T) {
	for _, topo := range equivTopologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 2; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(100 + seed)))
				sch := genValidSchedule(g0, 16, 0, rand.New(rand.NewSource(7*seed+1)))
				diffTransports(t, topo.gen, 100+seed, sch, sched.ModeBlocking)
			}
		})
	}
}

// TestTransportEquivalenceBatch: DeleteBatch waves — overlapping
// repairs of independent regions, region-admission serialization of
// the rest — interleaved with singleton churn.
func TestTransportEquivalenceBatch(t *testing.T) {
	for _, topo := range equivTopologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			t.Parallel()
			g0 := topo.gen(rand.New(rand.NewSource(200)))
			sch := genValidSchedule(g0, 14, 3, rand.New(rand.NewSource(11)))
			diffTransports(t, topo.gen, 200, sch, sched.ModeBlocking)
		})
	}
}

// TestTransportEquivalenceOpenLoop: pipelined churn — operations
// submitted while earlier repairs are still in flight, with random
// tick gaps. Disjoint regions overlap, colliding ones serialize; the
// serialized outcome must be backend-invariant even though the raw
// interleaving is not.
func TestTransportEquivalenceOpenLoop(t *testing.T) {
	for _, topo := range equivTopologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 2; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(300 + seed)))
				sch := genValidSchedule(g0, 18, 0, rand.New(rand.NewSource(13*seed+5)))
				diffTransports(t, topo.gen, 300+seed, sch, sched.ModeOpenLoop)
			}
		})
	}
}

// TestTransportEquivalenceOpenLoopBatch: open-loop churn punctuated by
// blocking batch waves (drain, batch, resume pipelining).
func TestTransportEquivalenceOpenLoopBatch(t *testing.T) {
	g0gen := equivTopologies[3].gen // gnp
	g0 := g0gen(rand.New(rand.NewSource(400)))
	sch := genValidSchedule(g0, 16, 4, rand.New(rand.NewSource(17)))
	diffTransports(t, g0gen, 400, sch, sched.ModeOpenLoop)
}
