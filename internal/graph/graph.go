// Package graph provides the undirected-graph substrate used throughout the
// Forgiving Graph reproduction: a mutable adjacency-list representation,
// an incremental connected-components certificate, breadth-first distance
// computations, connectivity queries, topology generators, and simple
// serialization.
//
// All graphs in this package are simple (no self-loops, no parallel edges)
// and undirected. Vertices are identified by NodeID values chosen by the
// caller; the graph does not require IDs to be dense or contiguous.
//
// Internally each vertex occupies a slot: one map turns a NodeID into its
// slot, and everything else is a flat array indexed by slot. A slot's
// neighbour list holds, per incident edge, the neighbour's slot and the
// position of the reverse entry in the neighbour's list, so an edge found
// from either end is unlinked from both in O(1). Neighbour order is the
// order edges were added, permuted by swap-removals: a deterministic
// function of the mutation history. Removed vertices leave their slot to
// the next AddNode.
package graph

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
)

// NodeID identifies a vertex. IDs are assigned by callers (in the
// reproduction they are processor identifiers assigned at insertion time)
// and are never reused.
type NodeID int64

// Edge is an unordered pair of vertices. Normalize with NewEdge so that
// edges compare equal regardless of endpoint order.
type Edge struct {
	U, V NodeID
}

// NewEdge returns the canonical form of the edge {u, v} with the smaller
// endpoint first.
func NewEdge(u, v NodeID) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// half is one direction of an edge in a slot's neighbour list: the
// neighbour's slot and the index of the reverse half in its list.
type half struct {
	to, rev int32
}

// Graph is a mutable simple undirected graph backed by slot-indexed
// neighbour lists. The zero value is not usable; construct with New.
type Graph struct {
	// index maps a vertex to its slot. A removed vertex keeps the
	// entry ^slot until its slot is reused, so a component tracker
	// told of the removal afterwards can still find the slot.
	index map[NodeID]int32
	ids   []NodeID // slot -> vertex (a vacant slot keeps its last vertex)
	live  []bool   // slot -> occupied
	adj   [][]half // slot -> incident edges
	free  []int32  // vacant slots, reused last-in first-out
	n, m  int      // vertices and edges
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{index: make(map[NodeID]int32)}
}

// Clone returns a deep copy of g. The copy shares no memory with g:
// its neighbour lists are cut from one fresh array, each capped at its
// length, so growing one reallocates it instead of writing into the
// next.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		index: maps.Clone(g.index),
		ids:   slices.Clone(g.ids),
		live:  slices.Clone(g.live),
		adj:   make([][]half, len(g.adj)),
		free:  slices.Clone(g.free),
		n:     g.n,
		m:     g.m,
	}
	buf := make([]half, 0, 2*g.m)
	for s, l := range g.adj {
		lo := len(buf)
		buf = append(buf, l...)
		c.adj[s] = buf[lo:len(buf):len(buf)]
	}
	return c
}

// slot returns u's slot if u is present.
func (g *Graph) slot(u NodeID) (int32, bool) {
	s, ok := g.index[u]
	return s, ok && s >= 0
}

// AddNode inserts an isolated vertex. It is a no-op if the vertex exists.
func (g *Graph) AddNode(u NodeID) {
	g.addNode(u)
}

// addNode inserts u if absent and returns its slot.
func (g *Graph) addNode(u NodeID) int32 {
	if s, ok := g.slot(u); ok {
		return s
	}
	var s int32
	if k := len(g.free); k > 0 {
		s = g.free[k-1]
		g.free = g.free[:k-1]
		if old := g.ids[s]; g.index[old] == ^s {
			delete(g.index, old)
		}
		g.ids[s] = u
		g.live[s] = true
	} else {
		s = int32(len(g.ids))
		g.ids = append(g.ids, u)
		g.live = append(g.live, true)
		g.adj = append(g.adj, nil)
	}
	g.index[u] = s
	g.n++
	return s
}

// HasNode reports whether u is present.
func (g *Graph) HasNode(u NodeID) bool {
	_, ok := g.slot(u)
	return ok
}

// AddEdge inserts the undirected edge {u, v}, adding missing endpoints.
// Self-loops are rejected. It reports whether a new edge was added.
func (g *Graph) AddEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	su, sv := g.addNode(u), g.addNode(v)
	if i, _ := g.find(su, sv); i >= 0 {
		return false
	}
	g.adj[su] = append(g.adj[su], half{to: sv, rev: int32(len(g.adj[sv]))})
	g.adj[sv] = append(g.adj[sv], half{to: su, rev: int32(len(g.adj[su]) - 1)})
	g.m++
	return true
}

// find locates the edge between slots su and sv: the index of its half
// in su's list and of the reverse half in sv's list, or (-1, -1). It
// scans both lists from the back in step, so it costs the smaller
// distance of the edge from either list's end: O(1) for an edge just
// added, or for a vertex's edges taken last to first.
func (g *Graph) find(su, sv int32) (i, j int32) {
	a, b := g.adj[su], g.adj[sv]
	for k := 1; k <= len(a) || k <= len(b); k++ {
		if k <= len(a) && a[len(a)-k].to == sv {
			return int32(len(a) - k), a[len(a)-k].rev
		}
		if k <= len(b) && b[len(b)-k].to == su {
			return b[len(b)-k].rev, int32(len(b) - k)
		}
	}
	return -1, -1
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	su, ok := g.slot(u)
	if !ok {
		return false
	}
	sv, ok := g.slot(v)
	if !ok {
		return false
	}
	i, _ := g.find(su, sv)
	return i >= 0
}

// unlink swap-removes the half at index i of slot s's list, repointing
// the reverse half of the entry moved into its place.
func (g *Graph) unlink(s, i int32) {
	l := g.adj[s]
	last := int32(len(l) - 1)
	if i != last {
		moved := l[last]
		l[i] = moved
		g.adj[moved.to][moved.rev].rev = i
	}
	g.adj[s] = l[:last]
}

// RemoveEdge deletes the edge {u, v} if present and reports whether it was.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	su, ok := g.slot(u)
	if !ok {
		return false
	}
	sv, ok := g.slot(v)
	if !ok {
		return false
	}
	i, j := g.find(su, sv)
	if i < 0 {
		return false
	}
	g.unlink(su, i)
	g.unlink(sv, j)
	g.m--
	return true
}

// RemoveNode deletes u and all incident edges in O(degree). It reports
// whether the vertex was present.
func (g *Graph) RemoveNode(u NodeID) bool {
	s, ok := g.slot(u)
	if !ok {
		return false
	}
	for _, h := range g.adj[s] {
		g.unlink(h.to, h.rev)
	}
	g.m -= len(g.adj[s])
	g.adj[s] = g.adj[s][:0]
	g.live[s] = false
	g.free = append(g.free, s)
	g.index[u] = ^s
	g.n--
	return true
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree of u, or 0 if u is absent.
func (g *Graph) Degree(u NodeID) int {
	if s, ok := g.slot(u); ok {
		return len(g.adj[s])
	}
	return 0
}

// Neighbors returns the neighbors of u in ascending order. The slice is a
// copy; mutating it does not affect the graph.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	s, ok := g.slot(u)
	if !ok || len(g.adj[s]) == 0 {
		return nil
	}
	out := make([]NodeID, len(g.adj[s]))
	for i, h := range g.adj[s] {
		out[i] = g.ids[h.to]
	}
	slices.Sort(out)
	return out
}

// EachNeighbor calls fn for every neighbor of u in list order (see the
// package doc), without allocating. fn must not mutate the graph.
func (g *Graph) EachNeighbor(u NodeID, fn func(v NodeID)) {
	s, ok := g.slot(u)
	if !ok {
		return
	}
	for _, h := range g.adj[s] {
		fn(g.ids[h.to])
	}
}

// Nodes returns all vertices in ascending order.
func (g *Graph) Nodes() []NodeID {
	out := make([]NodeID, 0, g.n)
	for s, u := range g.ids {
		if g.live[s] {
			out = append(out, u)
		}
	}
	slices.Sort(out)
	return out
}

// EachEdge calls fn once per edge, with u < v, in unspecified but
// deterministic order, without allocating. fn must not mutate the graph.
// Use Edges for the sorted list.
func (g *Graph) EachEdge(fn func(u, v NodeID)) {
	for s, l := range g.adj {
		u := g.ids[s]
		for _, h := range l {
			if v := g.ids[h.to]; u < v {
				fn(u, v)
			}
		}
	}
}

// Edges returns all edges in canonical form, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.EachEdge(func(u, v NodeID) { out = append(out, Edge{U: u, V: v}) })
	slices.SortFunc(out, func(a, b Edge) int {
		if a.U != b.U {
			return cmp.Compare(a.U, b.U)
		}
		return cmp.Compare(a.V, b.V)
	})
	return out
}

// MaxDegree returns the maximum degree over all vertices (0 for an empty
// graph) and one vertex attaining it, the smallest on a tie.
func (g *Graph) MaxDegree() (NodeID, int) {
	best, bestDeg, found := NodeID(0), -1, false
	for s, u := range g.ids {
		if !g.live[s] {
			continue
		}
		if d := len(g.adj[s]); d > bestDeg || (d == bestDeg && u < best) {
			best, bestDeg, found = u, d, true
		}
	}
	if !found {
		return 0, 0
	}
	return best, bestDeg
}

// String renders a compact human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// Equal reports whether g and h have identical vertex and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for s, u := range g.ids {
		if !g.live[s] {
			continue
		}
		if !h.HasNode(u) {
			return false
		}
		for _, e := range g.adj[s] {
			if !h.HasEdge(u, g.ids[e.to]) {
				return false
			}
		}
	}
	return true
}
