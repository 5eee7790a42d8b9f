package graph

import (
	"math/rand"
	"testing"
)

// The graph ledger's fixture: PreferentialAttachment(16384, 3) from
// seed 1, the perfbench initial topology at its default size (maximum
// degree 361, 49146 edges).
func ledgerGraph() *Graph {
	return PreferentialAttachment(16384, 3, rand.New(rand.NewSource(1)))
}

// BenchmarkEachNeighbor walks every node's neighbours once per op, in
// ascending node order: the access pattern of the certificate sweep
// and of every full-graph check. It must not allocate.
func BenchmarkEachNeighbor(b *testing.B) {
	g := ledgerGraph()
	nodes := g.Nodes()
	var sum NodeID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range nodes {
			g.EachNeighbor(u, func(v NodeID) { sum += v })
		}
	}
	b.StopTimer()
	if sum == 0 {
		b.Fatal("no neighbours visited")
	}
}

// BenchmarkClone copies the whole graph, as NewSimulationOn does twice
// per simulation.
func BenchmarkClone(b *testing.B) {
	g := ledgerGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := g.Clone(); c.NumEdges() != g.NumEdges() {
			b.Fatal("clone lost edges")
		}
	}
}

// BenchmarkNewComponents builds the connectivity certificate from
// scratch: one full labelling search, as NewSimulationOn does for the
// physical graph and for G′.
func BenchmarkNewComponents(b *testing.B) {
	g := ledgerGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := NewComponents(g); c.Count() != 1 {
			b.Fatal("fixture is not connected")
		}
	}
}

// BenchmarkRemoveHub removes the maximum-degree node the way a
// processor leaves the physical graph: its edges one at a time, in
// ascending neighbour order, then the node. Restoring it between ops
// is untimed.
func BenchmarkRemoveHub(b *testing.B) {
	g := ledgerGraph()
	hub, _ := g.MaxDegree()
	nbrs := g.Neighbors(hub)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range nbrs {
			g.RemoveEdge(hub, x)
		}
		g.RemoveNode(hub)

		b.StopTimer()
		for _, x := range nbrs {
			g.AddEdge(hub, x)
		}
		b.StartTimer()
	}
	b.StopTimer()
	if g.Degree(hub) != len(nbrs) {
		b.Fatal("hub not restored")
	}
}
