package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// The distributed protocol must be behaviorally equivalent to the
// reference engine: the same healed graph on the same adversarial
// operation sequence. These tests replay random insert/delete
// schedules through both implementations and compare after every
// operation.

// replayBoth drives a random schedule of ops through a fresh
// dist.Simulation and core.Engine built over g0, asserting equal
// physical networks throughout and full revalidation at the end.
func replayBoth(t *testing.T, g0 *graph.Graph, ops int, seed int64) {
	t.Helper()
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	rng := rand.New(rand.NewSource(seed))
	nextID := NodeID(10_000)

	for i := 0; i < ops; i++ {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		if rng.Float64() < 0.3 {
			v := nextID
			nextID++
			k := 1 + rng.Intn(3)
			if k > len(live) {
				k = len(live)
			}
			var nbrs []NodeID
			for _, idx := range rng.Perm(len(live))[:k] {
				nbrs = append(nbrs, live[idx])
			}
			if err := s.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: dist insert: %v", i, err)
			}
			if err := e.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: core insert: %v", i, err)
			}
		} else {
			v := live[rng.Intn(len(live))]
			if err := s.Delete(v); err != nil {
				t.Fatalf("op %d: dist delete %d: %v", i, v, err)
			}
			if err := e.Delete(v); err != nil {
				t.Fatalf("op %d: core delete %d: %v", i, v, err)
			}
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("op %d: healed graphs diverge (dist %v vs core %v)",
				i, s.Physical(), e.Physical())
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("dist verify: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("core invariants: %v", err)
	}
	if !s.GPrime().Equal(e.GPrime()) {
		t.Fatal("G' diverged")
	}
}

func TestEquivalenceWithCore(t *testing.T) {
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
		ops  int
	}{
		{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }, 30},
		{"path", func(*rand.Rand) *graph.Graph { return graph.Path(20) }, 26},
		{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }, 32},
		{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }, 40},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }, 36},
	}
	for _, topo := range topologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(100 + seed)))
				replayBoth(t, g0, topo.ops, 7*seed+1)
			}
		})
	}
}

// TestEquivalenceDeleteOnly grinds a network down to nothing, hitting
// the late-game repairs where most of the graph is Reconstruction
// Trees.
func TestEquivalenceDeleteOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g0 := graph.GNP(24, 0.2, rng)
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	for {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		v := live[rng.Intn(len(live))]
		if err := s.Delete(v); err != nil {
			t.Fatalf("dist delete %d: %v", v, err)
		}
		if err := e.Delete(v); err != nil {
			t.Fatalf("core delete %d: %v", v, err)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("after delete %d: healed graphs diverge", v)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("after delete %d: %v", v, err)
		}
	}
}

// TestEquivalenceAdversarialHubs kills highest-degree nodes — the
// attack that maximizes Reconstruction Tree churn — and cross-checks
// every step.
func TestEquivalenceAdversarialHubs(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 3, rand.New(rand.NewSource(17)))
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	for i := 0; i < 16; i++ {
		phys := s.Physical()
		live := s.LiveNodes()
		best, bestDeg := live[0], -1
		for _, u := range live {
			if d := phys.Degree(u); d > bestDeg {
				best, bestDeg = u, d
			}
		}
		if err := s.Delete(best); err != nil {
			t.Fatalf("dist delete %d: %v", best, err)
		}
		if err := e.Delete(best); err != nil {
			t.Fatalf("core delete %d: %v", best, err)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("after hub delete %d: healed graphs diverge", best)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
