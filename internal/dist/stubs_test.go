package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// materializedStubs builds the legacy adversary stub list from a
// snapshot: live nodes ascending, each repeated degree+1 times.
func materializedStubs(s *Simulation) []NodeID {
	net := s.Physical()
	var stubs []NodeID
	for _, u := range s.LiveNodes() {
		for i := 0; i <= net.Degree(u); i++ {
			stubs = append(stubs, u)
		}
	}
	return stubs
}

func checkStubIndex(t *testing.T, s *Simulation, when string) {
	t.Helper()
	want := materializedStubs(s)
	if got := s.StubCount(); got != len(want) {
		t.Fatalf("%s: StubCount = %d, materialized list has %d stubs", when, got, len(want))
	}
	for i, u := range want {
		if got := s.StubAt(i); got != u {
			t.Fatalf("%s: StubAt(%d) = %d, materialized list has %d", when, i, got, u)
		}
	}
}

// TestStubIndexMatchesMaterialized churns a simulation through blocking
// inserts and deletes and asserts, after every operation, that the
// incremental Fenwick stub index reproduces the materialized
// preferential-attachment stub list pointwise — the property that makes
// the adversary's fast path consume the identical rng stream.
func TestStubIndexMatchesMaterialized(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 2, rand.New(rand.NewSource(7)))
	s := NewSimulation(g0)
	checkStubIndex(t, s, "initial")

	rng := rand.New(rand.NewSource(11))
	nextID := NodeID(1000)
	for step := 0; step < 120; step++ {
		live := s.LiveNodes()
		if len(live) < 4 || rng.Intn(2) == 0 {
			k := 1 + rng.Intn(3)
			if k > len(live) {
				k = len(live)
			}
			nbrs := make([]NodeID, 0, k)
			for _, idx := range rng.Perm(len(live))[:k] {
				nbrs = append(nbrs, live[idx])
			}
			if err := s.Insert(nextID, nbrs); err != nil {
				t.Fatalf("insert %d: %v", nextID, err)
			}
			nextID++
		} else {
			v := live[rng.Intn(len(live))]
			if err := s.Delete(v); err != nil {
				t.Fatalf("delete %d: %v", v, err)
			}
		}
		checkStubIndex(t, s, "after churn step")
		if step%20 == 19 {
			if err := s.Verify(); err != nil {
				t.Fatalf("verify: %v", err) // includes the degree-tracker cross-check
			}
		}
	}
}

// TestStubIndexOutOfOrderInsert exercises the sorted-splice path: an
// insertion with an ID below the current maximum must land at its
// ascending position, exactly where the materialized list puts it. A
// splice leaves the Fenwick tree stale until the next StubAt, so the
// churn below interleaves runs of out-of-order inserts with no read
// between them, ascending inserts appended while the tree is stale,
// and deletes; StubCount must be exact after every insert, and StubAt
// is checked point by point after every run.
func TestStubIndexOutOfOrderInsert(t *testing.T) {
	g0 := graph.Path(4) // nodes 0..3
	s := NewSimulation(g0)
	if err := s.Insert(100, []NodeID{0, 2}); err != nil {
		t.Fatalf("insert 100: %v", err)
	}
	if err := s.Insert(50, []NodeID{100, 3}); err != nil {
		t.Fatalf("insert 50: %v", err)
	}
	checkStubIndex(t, s, "after out-of-order insert")
	if err := s.Delete(2); err != nil {
		t.Fatalf("delete 2: %v", err)
	}
	checkStubIndex(t, s, "after delete")

	rng := rand.New(rand.NewSource(13))
	down, up := NodeID(99), NodeID(1000) // IDs 51..99 splice, 1000.. append
	for run := 0; run < 40; run++ {
		for k := 1 + rng.Intn(4); k > 0; k-- {
			v := down
			if rng.Intn(3) == 0 || down == 50 {
				v, up = up, up+1
			} else {
				down--
			}
			live := s.LiveNodes()
			nbrs := []NodeID{live[rng.Intn(len(live))]}
			if x := live[rng.Intn(len(live))]; x != nbrs[0] {
				nbrs = append(nbrs, x)
			}
			if err := s.Insert(v, nbrs); err != nil {
				t.Fatalf("run %d: insert %d: %v", run, v, err)
			}
			if got, want := s.StubCount(), len(materializedStubs(s)); got != want {
				t.Fatalf("run %d: after inserting %d StubCount = %d, materialized list has %d", run, v, got, want)
			}
		}
		if live := s.LiveNodes(); rng.Intn(2) == 0 && len(live) > 4 {
			if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("run %d: delete: %v", run, err)
			}
		}
		checkStubIndex(t, s, fmt.Sprintf("after run %d", run))
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestMaxDegreeRatioIncremental pins the incremental tracker against
// the O(n) rebuild across churn that includes repairs (tree-edge
// images moving degrees around), independent of the Verify cross-check.
func TestMaxDegreeRatioIncremental(t *testing.T) {
	g0 := graph.PreferentialAttachment(24, 2, rand.New(rand.NewSource(3)))
	s := NewSimulation(g0)
	rng := rand.New(rand.NewSource(5))
	nextID := NodeID(1000)
	for step := 0; step < 60; step++ {
		live := s.LiveNodes()
		if len(live) < 4 || rng.Intn(3) == 0 {
			nbrs := []NodeID{live[rng.Intn(len(live))]}
			if err := s.Insert(nextID, nbrs); err != nil {
				t.Fatalf("insert: %v", err)
			}
			nextID++
		} else {
			if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("delete: %v", err)
			}
		}
		want := 0.0
		phys := s.Physical()
		gp := s.GPrime()
		for _, v := range s.LiveNodes() {
			if dp := gp.Degree(v); dp > 0 {
				if r := float64(phys.Degree(v)) / float64(dp); r > want {
					want = r
				}
			}
		}
		if got, _ := s.MaxDegreeRatio(); got != want {
			t.Fatalf("step %d: MaxDegreeRatio = %v, rebuild = %v", step, got, want)
		}
	}
}
