package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// TestComponentsIncremental drives random mutation campaigns and
// cross-checks the certificate against the BFS authority at a settle
// cadence: every k ops (k drawn per seed from 1–40) one query runs —
// each query settles the recorded edge removals first — and Check then
// audits the labels (the PR 2/PR 4 differential pattern). Between
// queries, removals pile up unsettled while whole nodes leave with
// their edges, removed edges come back, and marks toggle.
func TestComponentsIncremental(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		every := 1 + rng.Intn(40)
		g := New()
		c := NewComponents(g)
		var nodes []NodeID
		var cut []Edge // removed edges that may come back
		next := NodeID(0)
		drop := func(i int) {
			v := nodes[i]
			for _, x := range g.Neighbors(v) {
				g.RemoveEdge(v, x)
				c.OnRemoveEdge(v, x)
			}
			g.RemoveNode(v)
			c.OnRemoveNode(v)
			nodes[i] = nodes[len(nodes)-1]
			nodes = nodes[:len(nodes)-1]
		}
		for op := 0; op < 800; op++ {
			switch k := rng.Intn(20); {
			case k < 5 || len(nodes) < 2: // add node
				next++
				g.AddNode(next)
				c.OnAddNode(next)
				if rng.Intn(2) == 0 {
					c.Mark(next)
				}
				nodes = append(nodes, next)
			case k < 12: // add edge
				u := nodes[rng.Intn(len(nodes))]
				v := nodes[rng.Intn(len(nodes))]
				if g.AddEdge(u, v) {
					c.OnAddEdge(u, v)
				}
			case k < 16: // remove a random existing edge
				u := nodes[rng.Intn(len(nodes))]
				nbrs := g.Neighbors(u)
				if len(nbrs) == 0 {
					continue
				}
				v := nbrs[rng.Intn(len(nbrs))]
				if g.RemoveEdge(u, v) {
					c.OnRemoveEdge(u, v)
					cut = append(cut, NewEdge(u, v))
				}
			case k < 17: // re-add a removed edge whose endpoints survive
				if len(cut) == 0 {
					continue
				}
				i := rng.Intn(len(cut))
				e := cut[i]
				cut[i] = cut[len(cut)-1]
				cut = cut[:len(cut)-1]
				if g.HasNode(e.U) && g.HasNode(e.V) && g.AddEdge(e.U, e.V) {
					c.OnAddEdge(e.U, e.V)
				}
			case k < 18: // remove a whole node, its edges unsettled
				drop(rng.Intn(len(nodes)))
			case k < 19: // remove an isolated node, if any
				for _, i := range rng.Perm(len(nodes)) {
					if g.Degree(nodes[i]) == 0 {
						drop(i)
						break
					}
				}
			default: // toggle a mark
				v := nodes[rng.Intn(len(nodes))]
				if rng.Intn(2) == 0 {
					c.Mark(v)
				} else {
					c.Unmark(v)
				}
			}
			if op%every != every-1 {
				continue
			}
			switch rng.Intn(4) {
			case 0:
				c.Count()
			case 1:
				c.MarkedCount()
			case 2:
				if len(nodes) > 0 {
					c.Same(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))])
				}
			default:
				c.Damaged()
			}
			if n := c.Unsettled(); n != 0 {
				t.Fatalf("seed %d op %d: query left %d endpoints unsettled", seed, op, n)
			}
			if err := c.Check(); err != nil {
				t.Fatalf("seed %d (every %d) op %d: %v", seed, every, op, err)
			}
		}
	}
}

// TestComponentsSettleSplitsThrough pins why Settle searches per class
// instead of replaying the recorded edges one at a time: with trees
// T1–e1–T3–e2–T2 and both bridges cut, a replay that splits T3 off
// first would leave T1 and T2 sharing a label.
func TestComponentsSettleSplitsThrough(t *testing.T) {
	g := New()
	// T1 = 1-2-3, T3 = 4-5-6, T2 = 7-8-9; e1 = 3-4, e2 = 6-7.
	for _, e := range [][2]NodeID{{1, 2}, {2, 3}, {4, 5}, {5, 6}, {7, 8}, {8, 9}, {3, 4}, {6, 7}} {
		g.AddEdge(e[0], e[1])
	}
	c := NewComponents(g)
	for _, e := range [][2]NodeID{{3, 4}, {6, 7}} {
		g.RemoveEdge(e[0], e[1])
		c.OnRemoveEdge(e[0], e[1])
	}
	if c.Unsettled() != 4 {
		t.Fatalf("recorded %d endpoints, want 4", c.Unsettled())
	}
	if c.Count() != 3 || c.Same(1, 9) || c.Same(3, 4) || !c.Same(4, 6) {
		t.Fatalf("settled partition wrong: count=%d", c.Count())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// A node leaving with its edges unsettled: drop 5 (the middle of
	// T3), splitting 4 from 6; its class survives through them.
	for _, x := range g.Neighbors(5) {
		g.RemoveEdge(5, x)
		c.OnRemoveEdge(5, x)
	}
	g.RemoveNode(5)
	c.OnRemoveNode(5)
	if c.Count() != 4 || c.Same(4, 6) {
		t.Fatalf("node removal split wrong: count=%d", c.Count())
	}
	// The last node of a class leaving drops the class at once.
	g.RemoveNode(4)
	c.OnRemoveNode(4)
	if c.Unsettled() != 0 || c.Count() != 3 {
		t.Fatalf("emptied class still counted: count=%d", c.Count())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestComponentsSplitMerge exercises the split/merge choreography on a
// hand-built topology where the answers are known.
func TestComponentsSplitMerge(t *testing.T) {
	g := New()
	c := NewComponents(g)
	// Path 1-2-3-4 plus isolated 5.
	for v := NodeID(1); v <= 5; v++ {
		g.AddNode(v)
		c.OnAddNode(v)
		c.Mark(v)
	}
	for v := NodeID(1); v < 4; v++ {
		g.AddEdge(v, v+1)
		c.OnAddEdge(v, v+1)
	}
	if c.Count() != 2 || c.MarkedCount() != 2 {
		t.Fatalf("path+isolated: count=%d marked=%d, want 2/2", c.Count(), c.MarkedCount())
	}
	if !c.Same(1, 4) || c.Same(1, 5) {
		t.Fatalf("Same answers wrong on path+isolated")
	}
	// Cycle closure: removing one cycle edge must NOT split.
	g.AddEdge(4, 1)
	c.OnAddEdge(4, 1)
	g.RemoveEdge(2, 3)
	c.OnRemoveEdge(2, 3)
	if c.Count() != 2 || !c.Same(2, 3) {
		t.Fatalf("cycle edge removal split: count=%d", c.Count())
	}
	// Now a real split: cut the path 2-1-4-3 between 1 and 4.
	g.RemoveEdge(1, 4)
	c.OnRemoveEdge(1, 4)
	if c.Count() != 3 || c.Same(1, 3) || !c.Same(1, 2) || !c.Same(3, 4) {
		t.Fatalf("real split wrong: count=%d", c.Count())
	}
	if c.MarkedCount() != 3 {
		t.Fatalf("marked count after split = %d, want 3", c.MarkedCount())
	}
	// Unmark one whole side: its component stops counting.
	c.Unmark(3)
	c.Unmark(4)
	if c.MarkedCount() != 2 {
		t.Fatalf("marked count after unmark = %d, want 2", c.MarkedCount())
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestComponentsCorruptionHooks verifies the fault-injection hooks are
// detected by Check (a forged label also by CrossingNeighbor, on both
// ends of the edge it breaks) and healed by Relabel.
func TestComponentsCorruptionHooks(t *testing.T) {
	g := New()
	c := NewComponents(g)
	for v := NodeID(1); v <= 4; v++ {
		g.AddNode(v)
		c.OnAddNode(v)
		c.Mark(v)
	}
	g.AddEdge(1, 2)
	c.OnAddEdge(1, 2)
	g.AddEdge(3, 4)
	c.OnAddEdge(3, 4)

	c.ForgeLabel(2)
	if err := c.Check(); err == nil {
		t.Fatal("Check missed a forged label")
	}
	for _, v := range []NodeID{1, 2} {
		if x, ok := c.CrossingNeighbor(v); !ok || x != 3-v {
			t.Fatalf("CrossingNeighbor(%d) = %d, %v; want the forged edge's other end", v, x, ok)
		}
	}
	if x, ok := c.CrossingNeighbor(3); ok {
		t.Fatalf("CrossingNeighbor(3) = %d across an intact edge", x)
	}
	c.Relabel()
	if err := c.Check(); err != nil {
		t.Fatalf("Relabel did not heal forged label: %v", err)
	}
	if x, ok := c.CrossingNeighbor(2); ok {
		t.Fatalf("CrossingNeighbor(2) = %d after Relabel", x)
	}
	if c.Count() != 2 || c.MarkedCount() != 2 {
		t.Fatalf("post-heal counts wrong: %d/%d", c.Count(), c.MarkedCount())
	}

	c.SkewCount(1)
	if err := c.Check(); err == nil {
		t.Fatal("Check missed a skewed counter")
	}
	c.Relabel()
	if err := c.Check(); err != nil {
		t.Fatalf("Relabel did not heal skewed counter: %v", err)
	}
}

// TestComponentsSteadyStateAllocs pins the zero-allocation property of
// the hot update path: once the search scratch is warm, removing and
// re-adding a cycle edge and settling (the no-split case — the common
// one under protocol churn, where the graph stays connected) allocates
// nothing, and neither does settling a removal whose searches have to
// meet around the cycle. Splits mint one fresh label each, which
// amortizes into rare map growth, so only the surviving-component path
// is pinned at zero.
func TestComponentsSteadyStateAllocs(t *testing.T) {
	g := New()
	for v := NodeID(1); v <= 64; v++ {
		g.AddNode(v)
	}
	for v := NodeID(1); v < 64; v++ {
		g.AddEdge(v, v+1)
	}
	g.AddEdge(64, 1) // close the cycle
	c := NewComponents(g)
	cycle := func(settleBetween bool) {
		g.RemoveEdge(32, 33)
		c.OnRemoveEdge(32, 33)
		if settleBetween {
			c.Settle()
		}
		g.AddEdge(32, 33)
		c.OnAddEdge(32, 33)
		c.Settle()
	}
	// Warm the search scratch once.
	cycle(true)
	for _, between := range []bool{false, true} {
		if avg := testing.AllocsPerRun(100, func() { cycle(between) }); avg > 0 {
			t.Fatalf("non-split remove/add/settle (settle between: %v) allocates %.1f per run, want 0", between, avg)
		}
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkComponentsRemoveNode is the certificate's ledger entry: on
// PreferentialAttachment(16384, 3), one op removes a median-degree
// node's edges and then the node, re-links its neighbours the way a
// Forgiving Graph repair does (a balanced binary tree over them, the
// shape of a Reconstruction Tree), and settles. Restoring the node
// between ops is untimed.
func BenchmarkComponentsRemoveNode(b *testing.B) {
	g := PreferentialAttachment(16384, 3, rand.New(rand.NewSource(1)))
	c := NewComponents(g)
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool {
		di, dj := g.Degree(nodes[i]), g.Degree(nodes[j])
		return di < dj || di == dj && nodes[i] < nodes[j]
	})
	v := nodes[len(nodes)/2]
	nbrs := g.Neighbors(v)
	var tree []Edge // re-link edges that were new to the graph
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range nbrs {
			g.RemoveEdge(v, x)
			c.OnRemoveEdge(v, x)
		}
		g.RemoveNode(v)
		c.OnRemoveNode(v)
		tree = tree[:0]
		for j := 1; j < len(nbrs); j++ {
			if x, y := nbrs[j], nbrs[(j-1)/2]; g.AddEdge(x, y) {
				c.OnAddEdge(x, y)
				tree = append(tree, Edge{x, y})
			}
		}
		c.Settle()

		b.StopTimer()
		for _, e := range tree {
			g.RemoveEdge(e.U, e.V)
			c.OnRemoveEdge(e.U, e.V)
		}
		g.AddNode(v)
		c.OnAddNode(v)
		for _, x := range nbrs {
			g.AddEdge(v, x)
			c.OnAddEdge(v, x)
		}
		c.Settle()
		b.StartTimer()
	}
	b.StopTimer()
	if err := c.Check(); err != nil {
		b.Fatal(err)
	}
}
