package dist

import (
	"testing"

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
