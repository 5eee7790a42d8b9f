package dist

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Incremental maintenance of the physical network G_T.
//
// The physical graph is the homomorphic image of the virtual graph:
// live G′ edges plus the tree-edge images (record owner, parent owner),
// with self-loops and parallel edges collapsed. It used to be rebuilt
// from every record of every processor on each call — O(n) work that is
// wrong for soak at n ≥ 10⁴ — and is now maintained under every
// mutation: a simple graph plus an edge-multiplicity index (a physical
// edge exists while at least one G′ edge or parent link maps onto it).
//
// Mutations reach the index through two channels. Driver-side changes
// (insertions, processor removal) apply directly. Handler-side changes
// (links cut by death notifications, strip detachments and retirements,
// merge-plan link instructions) append to the owning processor's
// private edit log — handlers never touch shared state, which is what
// keeps channet's goroutine-per-processor delivery race-free —
// and the simulation drains the logs of the processors that actually
// logged something after each quiescent run. Verify cross-checks the
// maintained graph against a from-scratch reconstruction.

// dirtyList tracks which processors have pending physical-graph edits,
// so draining touches only them instead of sweeping every processor.
// The mutex serializes first-edit registrations from concurrent handler
// goroutines on channet.
type dirtyList struct {
	mu    sync.Mutex
	procs []*processor
}

func (d *dirtyList) add(p *processor) {
	d.mu.Lock()
	d.procs = append(d.procs, p)
	d.mu.Unlock()
}

func (d *dirtyList) take() []*processor {
	d.mu.Lock()
	procs := d.procs
	d.procs = nil
	d.mu.Unlock()
	return procs
}

// initPhys seeds the maintained physical graph from the initial
// topology: every node alive, no tree edges yet.
func (s *Simulation) initPhys(g0 *graph.Graph) {
	s.phys = g0.Clone()
	s.physMult = make(map[graph.Edge]int, g0.NumEdges())
	g0.EachEdge(func(u, v NodeID) { s.physMult[graph.Edge{U: u, V: v}] = 1 })
	s.dirty = &dirtyList{}
	// The connectivity certificates (see cert.go) shadow every mutation
	// of the two graphs from here on. gprime was cloned before initPhys
	// runs; its initial nodes are marked live by addProcessor.
	s.physCC = graph.NewComponents(s.phys)
	s.gpCC = graph.NewComponents(s.gprime)
	// The degree indexes (see stubs.go) start empty; addProcessor seeds
	// the initial nodes, folding in the degrees the clone already has.
	s.stubs = newStubIndex()
	s.degs = newDegTracker()
}

// physAdd records one more virtual-edge image mapping onto {a, b}.
func (s *Simulation) physAdd(a, b NodeID) {
	if a == b {
		return
	}
	e := graph.NewEdge(a, b)
	s.physMult[e]++
	if s.physMult[e] == 1 {
		if s.phys.AddEdge(a, b) {
			s.physCC.OnAddEdge(a, b)
			s.stubs.adjust(a, 1)
			s.stubs.adjust(b, 1)
			s.degChanged(a)
			s.degChanged(b)
		}
		// Refinement invariant: a physical edge only ever materializes
		// between processors already connected in G′ (it is the image of
		// a live G′ edge, or of a tree link inside an RT whose members
		// are connected through dead nodes). Recording a violation here
		// — sticky, surfaced by VerifyDelta — is what lets the delta
		// pass prove connectivity equivalence from component counts
		// alone, with no O(n) sweep.
		if s.certErr == nil && !s.gpCC.Same(a, b) {
			s.certErr = fmt.Errorf("dist: certificate: physical edge %d-%d appeared between G'-disconnected processors", a, b)
		}
	}
}

// physDel records one fewer virtual-edge image mapping onto {a, b};
// the physical edge disappears when the last image does. The edge may
// already be gone from the graph when its owner died first
// (removeProcessor removes a dead node's incident edges eagerly, the
// multiplicity drains catch up here) — the certificate saw that
// removal then, so it is only told about removals the graph performs.
func (s *Simulation) physDel(a, b NodeID) {
	if a == b {
		return
	}
	e := graph.NewEdge(a, b)
	switch c := s.physMult[e] - 1; {
	case c > 0:
		s.physMult[e] = c
	case c == 0:
		delete(s.physMult, e)
		if s.phys.RemoveEdge(a, b) {
			s.physCC.OnRemoveEdge(a, b)
			s.stubs.adjust(a, -1)
			s.stubs.adjust(b, -1)
			s.degChanged(a)
			s.degChanged(b)
		}
	default:
		panic(fmt.Sprintf("dist: physical edge %v-%v multiplicity went negative", a, b))
	}
}

// drainPhys applies every pending handler-side edit. Application order
// does not matter: the edits are multiplicity increments and decrements,
// which commute.
func (s *Simulation) drainPhys() {
	for _, p := range s.dirty.take() {
		for _, ed := range p.physLog {
			if ed.add {
				s.physAdd(ed.a, ed.b)
			} else {
				s.physDel(ed.a, ed.b)
			}
		}
		p.physLog = p.physLog[:0]
	}
}

// Physical returns the current actual network G_T. The graph is
// maintained incrementally; this call only snapshots it. The caller
// owns the copy.
func (s *Simulation) Physical() *graph.Graph {
	s.drainPhys()
	return s.phys.Clone()
}

// PhysicalDegree returns v's degree in the current actual network
// without materializing a snapshot.
func (s *Simulation) PhysicalDegree(v NodeID) int {
	s.drainPhys()
	return s.phys.Degree(v)
}

// physImages recomputes the edge-multiplicity index from scratch by
// walking every record of every processor: one count per live G′ edge
// plus one per cross-processor parent link. This single traversal is
// the definition of which virtual edges have physical images; both the
// reconstruction oracle and the consistency check derive from it.
func (s *Simulation) physImages() map[graph.Edge]int {
	want := make(map[graph.Edge]int)
	for v := range s.alive {
		s.gprime.EachNeighbor(v, func(x NodeID) {
			if _, live := s.alive[x]; live && v < x {
				want[graph.NewEdge(v, x)]++
			}
		})
	}
	for id, p := range s.procs {
		for _, l := range p.leaves {
			if l.parent.ok() && l.parent.Owner != id {
				want[graph.NewEdge(id, l.parent.Owner)]++
			}
		}
		for _, h := range p.helpers {
			if h.parent.ok() && h.parent.Owner != id {
				want[graph.NewEdge(id, h.parent.Owner)]++
			}
		}
	}
	return want
}

// rebuildPhysical reconstructs G_T from scratch — the original O(n)
// implementation, kept as the oracle the incremental graph is
// verified (and benchmarked) against.
func (s *Simulation) rebuildPhysical() *graph.Graph {
	g := graph.New()
	for v := range s.alive {
		g.AddNode(v)
	}
	for e := range s.physImages() {
		g.AddEdge(e.U, e.V)
	}
	return g
}

// checkPhysIncremental verifies the maintained physical graph and its
// multiplicity index against the from-scratch traversal.
func (s *Simulation) checkPhysIncremental() error {
	s.drainPhys()
	want := s.physImages()
	if len(want) != len(s.physMult) {
		return fmt.Errorf("dist: physical multiplicity index has %d edges, reconstruction %d",
			len(s.physMult), len(want))
	}
	for e, m := range want {
		if s.physMult[e] != m {
			return fmt.Errorf("dist: physical edge %v-%v multiplicity %d, reconstruction %d",
				e.U, e.V, s.physMult[e], m)
		}
	}
	// The materialized graph must mirror the index exactly: live nodes
	// and one edge per positive multiplicity.
	if s.phys.NumNodes() != len(s.alive) {
		return fmt.Errorf("dist: physical graph has %d nodes, %d alive", s.phys.NumNodes(), len(s.alive))
	}
	for v := range s.alive {
		if !s.phys.HasNode(v) {
			return fmt.Errorf("dist: live node %d missing from physical graph", v)
		}
	}
	if s.phys.NumEdges() != len(s.physMult) {
		return fmt.Errorf("dist: physical graph has %d edges, index %d", s.phys.NumEdges(), len(s.physMult))
	}
	for e := range s.physMult {
		if !s.phys.HasEdge(e.U, e.V) {
			return fmt.Errorf("dist: physical edge %v-%v in index but not in graph", e.U, e.V)
		}
	}
	return nil
}
