package dist

import (
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/graph"
)

func TestStarHubDeletion(t *testing.T) {
	n := 16
	s := NewSimulation(graph.Star(n))
	if s.NumAlive() != n {
		t.Fatalf("alive = %d, want %d", s.NumAlive(), n)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	rs := s.LastRecovery()
	if rs.Deleted != 0 || rs.DegreePrime != n-1 || rs.NsetSize != n-1 {
		t.Fatalf("recovery stats = %+v", rs)
	}
	if rs.Messages == 0 || rs.Rounds == 0 || rs.MaxWords == 0 || rs.TotalWords < rs.Messages {
		t.Fatalf("missing accounting: %+v", rs)
	}
	phys := s.Physical()
	if got := phys.NumNodes(); got != n-1 {
		t.Fatalf("physical nodes = %d, want %d", got, n-1)
	}
	// The repair must reconnect the shattered star.
	reach := phys.BFS(1)
	if len(reach) != n-1 {
		t.Fatalf("network not whole after repair: reached %d of %d", len(reach), n-1)
	}
}

func TestRepeatedDeletionsOnPath(t *testing.T) {
	s := NewSimulation(graph.Path(8))
	for _, v := range []NodeID{3, 4, 2, 5} {
		if err := s.Delete(v); err != nil {
			t.Fatalf("delete %d: %v", v, err)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("after delete %d: %v", v, err)
		}
	}
	if got := s.NumAlive(); got != 4 {
		t.Fatalf("alive = %d, want 4", got)
	}
	phys := s.Physical()
	if d := phys.Distance(0, 7); d < 1 {
		t.Fatalf("0 and 7 disconnected (distance %d)", d)
	}
}

func TestInsertValidation(t *testing.T) {
	s := NewSimulation(graph.Path(3))
	if err := s.Insert(1, nil); err == nil {
		t.Fatal("reused id accepted")
	}
	if err := s.Insert(9, []NodeID{9}); err == nil {
		t.Fatal("self edge accepted")
	}
	if err := s.Insert(9, []NodeID{77}); err == nil {
		t.Fatal("dead neighbor accepted")
	}
	if err := s.Insert(9, []NodeID{1, 1}); err == nil {
		t.Fatal("duplicate neighbor accepted")
	}
	if err := s.Insert(9, []NodeID{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	// Deleted ids are never reused.
	if err := s.Insert(1, nil); err == nil {
		t.Fatal("deleted id reused")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteValidation(t *testing.T) {
	s := NewSimulation(graph.Star(4))
	if err := s.Delete(99); err == nil {
		t.Fatal("unknown node deleted")
	}
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err == nil {
		t.Fatal("double deletion accepted")
	}
}

func TestIsolatedNodeDeletion(t *testing.T) {
	g := graph.New()
	g.AddNode(0)
	g.AddEdge(1, 2)
	s := NewSimulation(g)
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	rs := s.LastRecovery()
	if rs.Messages != 0 || rs.NsetSize != 0 {
		t.Fatalf("isolated deletion should cost nothing: %+v", rs)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *graph.Graph {
		s := NewSimulation(graph.Grid(4, 4))
		for _, v := range []NodeID{5, 6, 9, 10, 0} {
			if err := s.Delete(v); err != nil {
				t.Fatal(err)
			}
		}
		return s.Physical()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatal("two identical runs produced different healed graphs")
	}
}

// TestTwoSimulationsFromOneG0 builds two simulations from one initial
// graph and drives the same schedule through both, once with the audit
// on and once with coalescing at Window 4: the pattern of a benchmark
// that hands one g0 to every episode and fully verifies a later one.
// g0 must come out unchanged, the second run must repeat the first's
// events, healed graphs, messages and rounds, and it must pass the full
// Verify within the degree bound.
func TestTwoSimulationsFromOneG0(t *testing.T) {
	g0 := graph.PreferentialAttachment(384, 3, rand.New(rand.NewSource(2202)))
	nodes, edges := g0.Nodes(), g0.Edges()
	schedule := genCoalesceSchedule(g0, 64, 5)
	for _, mode := range []string{"audit", "coalesce"} {
		t.Run(mode, func(t *testing.T) {
			var digest [2]uint64
			var msgs, rounds [2]int
			var s *Simulation
			for run := range digest {
				s = NewSimulation(g0)
				if mode == "audit" {
					if err := s.EnableAudit(audit.Config{}); err != nil {
						t.Fatal(err)
					}
				} else {
					s.SetCoalescing(CoalesceConfig{Window: 4})
				}
				d := &admissionDigest{h: fnv.New64a()}
				d.observe(s)
				for _, so := range schedule {
					if err := s.Submit(so.op); err != nil {
						t.Fatal(err)
					}
					for r := 0; r < so.delay; r++ {
						s.Tick()
					}
				}
				d.finish(t, s)
				digest[run], msgs[run], rounds[run] = d.h.Sum64(), s.NetMessages(), s.Round()
				if !slices.Equal(g0.Nodes(), nodes) || !slices.Equal(g0.Edges(), edges) {
					t.Fatalf("run %d changed g0", run)
				}
			}
			if digest[0] != digest[1] || msgs[0] != msgs[1] || rounds[0] != rounds[1] {
				t.Fatalf("runs differ: digests %#x/%#x, messages %d/%d, rounds %d/%d",
					digest[0], digest[1], msgs[0], msgs[1], rounds[0], rounds[1])
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("second simulation: %v", err)
			}
			if r, v := s.MaxDegreeRatio(); r > 4 {
				t.Fatalf("second simulation: node %d has degree ratio %.2f > 4", v, r)
			}
		})
	}
}
