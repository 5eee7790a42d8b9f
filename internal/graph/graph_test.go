package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func TestNewEdgeCanonical(t *testing.T) {
	tests := []struct {
		name string
		u, v NodeID
		want Edge
	}{
		{"ordered", 1, 2, Edge{1, 2}},
		{"reversed", 2, 1, Edge{1, 2}},
		{"equal", 3, 3, Edge{3, 3}},
		{"negative", -5, 2, Edge{-5, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := NewEdge(tt.u, tt.v); got != tt.want {
				t.Errorf("NewEdge(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
			}
		})
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(7)
	g.AddNode(7)
	if got := g.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
	if !g.HasNode(7) {
		t.Fatal("HasNode(7) = false, want true")
	}
	if g.HasNode(8) {
		t.Fatal("HasNode(8) = true, want false")
	}
}

func TestAddEdge(t *testing.T) {
	g := New()
	if !g.AddEdge(1, 2) {
		t.Fatal("first AddEdge returned false")
	}
	if g.AddEdge(2, 1) {
		t.Fatal("duplicate AddEdge (reversed) returned true")
	}
	if g.AddEdge(3, 3) {
		t.Fatal("self-loop AddEdge returned true")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("got n=%d m=%d, want n=2 m=1", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("HasEdge should be symmetric")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !g.RemoveEdge(2, 1) {
		t.Fatal("RemoveEdge existing edge returned false")
	}
	if g.RemoveEdge(1, 2) {
		t.Fatal("RemoveEdge absent edge returned true")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.HasEdge(1, 2) {
		t.Fatal("edge {1,2} still present after removal")
	}
}

func TestRemoveNode(t *testing.T) {
	g := Star(5)
	if !g.RemoveNode(0) {
		t.Fatal("RemoveNode(hub) returned false")
	}
	if g.RemoveNode(0) {
		t.Fatal("RemoveNode of absent vertex returned true")
	}
	if g.NumNodes() != 4 || g.NumEdges() != 0 {
		t.Fatalf("after hub removal: n=%d m=%d, want n=4 m=0", g.NumNodes(), g.NumEdges())
	}
	for _, u := range g.Nodes() {
		if g.Degree(u) != 0 {
			t.Errorf("Degree(%d) = %d, want 0", u, g.Degree(u))
		}
	}
}

func TestNeighborsSortedCopy(t *testing.T) {
	g := New()
	g.AddEdge(5, 9)
	g.AddEdge(5, 1)
	g.AddEdge(5, 4)
	nbrs := g.Neighbors(5)
	want := []NodeID{1, 4, 9}
	if len(nbrs) != len(want) {
		t.Fatalf("Neighbors(5) = %v, want %v", nbrs, want)
	}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(5) = %v, want %v", nbrs, want)
		}
	}
	nbrs[0] = 999 // mutate copy; graph must be unaffected
	if !g.HasEdge(5, 1) {
		t.Fatal("mutating Neighbors result affected the graph")
	}
	if got := g.Neighbors(42); got != nil {
		t.Fatalf("Neighbors of absent vertex = %v, want nil", got)
	}
}

func TestEachNeighborVisitsAll(t *testing.T) {
	g := Cycle(6)
	seen := map[NodeID]bool{}
	g.EachNeighbor(0, func(v NodeID) { seen[v] = true })
	if !seen[1] || !seen[5] || len(seen) != 2 {
		t.Fatalf("EachNeighbor(0) visited %v, want {1,5}", seen)
	}
}

func TestNodesAndEdgesDeterministic(t *testing.T) {
	g := New()
	g.AddEdge(3, 1)
	g.AddEdge(2, 3)
	g.AddNode(0)
	nodes := g.Nodes()
	wantNodes := []NodeID{0, 1, 2, 3}
	for i := range wantNodes {
		if nodes[i] != wantNodes[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, wantNodes)
		}
	}
	edges := g.Edges()
	wantEdges := []Edge{{1, 3}, {2, 3}}
	if len(edges) != len(wantEdges) {
		t.Fatalf("Edges = %v, want %v", edges, wantEdges)
	}
	for i := range wantEdges {
		if edges[i] != wantEdges[i] {
			t.Fatalf("Edges = %v, want %v", edges, wantEdges)
		}
	}
}

// checkLinks verifies the slot layout's invariants: every half's
// reverse half points back at it, the index agrees with the slots
// (tombstones only for vacant slots), the free list holds exactly the
// vacant slots, and the counters match.
func checkLinks(t *testing.T, g *Graph) {
	t.Helper()
	n, halves := 0, 0
	for s, l := range g.adj {
		if !g.live[s] {
			if len(l) != 0 {
				t.Fatalf("vacant slot %d holds %d edges", s, len(l))
			}
			continue
		}
		n++
		halves += len(l)
		if got := g.index[g.ids[s]]; got != int32(s) {
			t.Fatalf("node %d in slot %d, index says %d", g.ids[s], s, got)
		}
		for i, h := range l {
			if !g.live[h.to] || h.to == int32(s) {
				t.Fatalf("slot %d entry %d points at slot %d", s, i, h.to)
			}
			if back := g.adj[h.to][h.rev]; back != (half{to: int32(s), rev: int32(i)}) {
				t.Fatalf("slot %d entry %d: reverse half %+v", s, i, back)
			}
		}
	}
	if n != g.n || halves != 2*g.m {
		t.Fatalf("counted n=%d m=%d, graph says n=%d m=%d", n, halves/2, g.n, g.m)
	}
	if n+len(g.free) != len(g.ids) {
		t.Fatalf("%d live slots and %d free of %d", n, len(g.free), len(g.ids))
	}
	for _, s := range g.free {
		if g.live[s] {
			t.Fatalf("free slot %d is live", s)
		}
	}
	for v, s := range g.index {
		if s < 0 && (g.live[^s] || g.ids[^s] != v) {
			t.Fatalf("tombstone of %d names slot %d, which holds %d", v, ^s, g.ids[^s])
		}
	}
}

// mutate applies one random mutation over IDs 0..pool-1: an edge
// added or removed, a node removed (its slot freed) or added (a
// vacant slot reused, sometimes under an ID removed before).
func mutate(g *Graph, rng *rand.Rand, pool int) {
	id := func() NodeID { return NodeID(rng.Intn(pool)) }
	switch k := rng.Intn(10); {
	case k < 4:
		g.AddEdge(id(), id())
	case k < 7:
		if u := id(); g.Degree(u) > 0 {
			nbrs := g.Neighbors(u)
			g.RemoveEdge(u, nbrs[rng.Intn(len(nbrs))])
		}
	case k < 8:
		g.RemoveNode(id())
	default:
		g.AddNode(id())
	}
}

// snapshot is a graph's observable state: sorted nodes and edges, and
// each node's neighbours in list order.
type snapshot struct {
	nodes []NodeID
	edges []Edge
	order map[NodeID][]NodeID
}

func snap(g *Graph) snapshot {
	sn := snapshot{nodes: g.Nodes(), edges: g.Edges(), order: map[NodeID][]NodeID{}}
	for _, u := range sn.nodes {
		g.EachNeighbor(u, func(v NodeID) { sn.order[u] = append(sn.order[u], v) })
	}
	return sn
}

func (sn snapshot) equal(o snapshot) bool {
	if !slices.Equal(sn.nodes, o.nodes) || !slices.Equal(sn.edges, o.edges) || len(sn.order) != len(o.order) {
		return false
	}
	for u, l := range sn.order {
		if !slices.Equal(l, o.order[u]) {
			return false
		}
	}
	return true
}

// TestCloneIndependence checks that a clone and its source share no
// memory, in both directions. Random mutations, slot reuse included,
// go first to the clone and then to the source; after every step the
// other graph must still equal its snapshot, neighbour order included.
// A clone whose neighbour lists shared an array with its source would
// let an append or a swap-removal on one write into the other.
func TestCloneIndependence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := PreferentialAttachment(48, 3, rng)
		for i := 0; i < 60; i++ { // vacant slots and tombstones to copy
			mutate(src, rng, 64)
		}
		c := src.Clone()
		if !src.Equal(c) || !snap(src).equal(snap(c)) {
			t.Fatalf("seed %d: clone differs from its source", seed)
		}
		checkLinks(t, c)
		for _, pair := range [][2]*Graph{{c, src}, {src, c}} {
			changed, other := pair[0], pair[1]
			want := snap(other)
			for step := 0; step < 200; step++ {
				mutate(changed, rng, 64)
				checkLinks(t, changed)
				if !snap(other).equal(want) {
					t.Fatalf("seed %d step %d: mutating one graph changed the other", seed, step)
				}
			}
			checkLinks(t, other)
		}
	}
	g := Cycle(4)
	c := g.Clone()
	c.RemoveNode(0)
	if g.NumNodes() != 4 || g.Equal(c) {
		t.Fatal("Equal should detect divergence")
	}
}

// TestRemovedNodeSlot pins the slot lifecycle: a removed node is gone
// from every query, its slot is the next one reused, and an ID can
// come back.
func TestRemovedNodeSlot(t *testing.T) {
	g := Star(5)
	s := g.index[0]
	g.RemoveNode(0)
	if g.HasNode(0) || g.Degree(0) != 0 || g.Neighbors(0) != nil || g.RemoveNode(0) || g.HasEdge(0, 1) {
		t.Fatal("removed hub still visible")
	}
	g.EachNeighbor(0, func(NodeID) { t.Fatal("removed hub has neighbours") })
	g.AddEdge(7, 1)
	if g.index[7] != s {
		t.Fatalf("new node took slot %d, want the vacated %d", g.index[7], s)
	}
	if _, ok := g.index[0]; ok {
		t.Fatal("reused slot kept the old node's tombstone")
	}
	g.AddEdge(0, 2)
	if !g.HasEdge(0, 2) || g.NumNodes() != 6 || g.NumEdges() != 2 {
		t.Fatalf("re-added ID: %v", g)
	}
	checkLinks(t, g)
}

func TestEqual(t *testing.T) {
	a := Path(4)
	b := Path(4)
	if !a.Equal(b) {
		t.Fatal("identical paths not Equal")
	}
	b.AddEdge(0, 3)
	if a.Equal(b) {
		t.Fatal("graphs with different edges reported Equal")
	}
	c := Path(4)
	c.AddNode(99)
	if a.Equal(c) {
		t.Fatal("graphs with different vertex sets reported Equal")
	}
	// Same counts, different wiring.
	d := New()
	d.AddEdge(0, 1)
	d.AddEdge(2, 3)
	d.AddEdge(1, 2)
	e := New()
	e.AddEdge(0, 1)
	e.AddEdge(0, 2)
	e.AddEdge(0, 3)
	if d.Equal(e) {
		t.Fatal("path and star with equal counts reported Equal")
	}
}

func TestMaxDegree(t *testing.T) {
	tests := []struct {
		name    string
		g       *Graph
		wantID  NodeID
		wantDeg int
	}{
		{"empty", New(), 0, 0},
		{"star", Star(6), 0, 5},
		{"path", Path(3), 1, 2},
		{"cycle ties pick smallest id", Cycle(5), 0, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			id, deg := tt.g.MaxDegree()
			if id != tt.wantID || deg != tt.wantDeg {
				t.Errorf("MaxDegree = (%d,%d), want (%d,%d)", id, deg, tt.wantID, tt.wantDeg)
			}
		})
	}
}

func TestStringSummary(t *testing.T) {
	if got := Star(4).String(); got != "graph{n=4 m=3}" {
		t.Fatalf("String = %q", got)
	}
}
