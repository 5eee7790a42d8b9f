package dist

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/haft"
)

// Incremental verification, and the record checker both scopes share.
//
// Verify revalidates the whole network from scratch — O(n) work that
// dominates soak runs at n ≥ 10⁵, where a checkpoint only ever follows
// a handful of repairs. VerifyDelta instead revisits exactly the
// processors whose records changed since the last verification (full
// or delta): handlers register in the touchers list on their first
// mutation, the same mechanism the incremental physical graph uses for
// its edit logs. Both run one record checker, checkRecords: a
// processor's record-level invariants, then every Reconstruction Tree
// holding one of its records, re-validated wholesale (haft shape, link
// mutuality, representatives) by climbing to the root and rebuilding
// the subtree. The delta pass runs it on the touched processors —
// O(changed region), not O(n) — and Verify on all of them.
//
// The full check stays authoritative: it additionally proves the
// global properties a local pass cannot (processor set equal to the
// live set, physical-graph reconstruction equality, the certificate
// against from-scratch partitions, the degree tracker against its
// rebuild, G′ connectivity equivalence), so soak still runs it at the
// end — and the tests cross-check that delta and full verification
// agree after every operation.

// VerifyDelta revalidates the records touched since the last
// verification plus, opportunistically, up to sample additional live
// processors (0 disables the extra sweep; the pick is a deterministic
// round-robin cursor in insertion order, see appendSample). It returns
// nil on a healthy network; corruption inside a changed region is
// detected exactly like the full Verify would.
//
// Connectivity equivalence and physical-graph equality are proved by
// the incremental certificate (see cert.go): an O(1) component-count
// comparison plus per-touched-processor label and multiplicity checks —
// no O(n) pass anywhere on this path.
func (s *Simulation) VerifyDelta(sample int) error {
	s.drainPhys()
	if err := s.checkEngineFootprint(); err != nil {
		return err
	}
	if err := s.checkTransport(); err != nil {
		return err
	}
	if err := s.checkCertCounts(); err != nil {
		return err
	}
	procs := s.appendSample(s.takeTouched(), sample)
	checkedRoots := make(map[addr]struct{})
	for _, p := range procs {
		if s.procs[p.id] != p {
			continue // deleted since it was touched
		}
		if err := s.checkRecords(p, checkedRoots); err != nil {
			return err
		}
		if err := s.checkPhysIncident(p); err != nil {
			return err
		}
		if err := s.checkCertIncident(p); err != nil {
			return err
		}
	}
	return nil
}

// checkRecords is the record checker of both verification scopes: p's
// record-level invariants, then every RT holding one of p's records.
// checkedRoots spans one pass, so an RT shared by several checked
// processors is rebuilt once.
func (s *Simulation) checkRecords(p *processor, checkedRoots map[addr]struct{}) error {
	if err := s.checkProcessorLocal(p); err != nil {
		return err
	}
	for o := range p.leaves {
		if err := s.checkRTContaining(leafAddr(p.id, o), checkedRoots); err != nil {
			return err
		}
	}
	for o := range p.helpers {
		if err := s.checkRTContaining(helperAddr(p.id, o), checkedRoots); err != nil {
			return err
		}
	}
	return nil
}

// checkPhysIncident verifies the maintained physical-edge multiplicity
// index restricted to the edges incident to one touched processor,
// recounting the virtual-edge images from both endpoints' records — a
// region-scoped slice of the full check's physical-graph
// reconstruction. A record link silently changed without its edit
// being logged (the dropped-parent corruption mode) desynchronizes the
// index from the records on exactly such an edge, which a purely
// RT-shape pass can miss when the orphaned subtree is itself a valid
// tree.
//
// Each peer's adjacency in both graphs is read off one walk of p's own
// neighbour lists: a HasEdge per peer would scan the peer's list, which
// costs a hub as much as its peers' degrees sum to.
func (s *Simulation) checkPhysIncident(p *processor) error {
	const inPhys, inGPrime = 1, 2
	id := p.id
	peers := make(map[NodeID]uint8)
	s.phys.EachNeighbor(id, func(q NodeID) { peers[q] = inPhys })
	addParent := func(a addr) {
		if a.ok() && a.Owner != id {
			if _, ok := peers[a.Owner]; !ok {
				peers[a.Owner] = 0
			}
		}
	}
	for _, l := range p.leaves {
		addParent(l.parent)
	}
	for _, h := range p.helpers {
		addParent(h.parent)
	}
	s.gprime.EachNeighbor(id, func(q NodeID) {
		if b, ok := peers[q]; ok {
			peers[q] = b | inGPrime
		}
	})
	countTo := func(pp *processor, other NodeID) int {
		c := 0
		for _, l := range pp.leaves {
			if l.parent.ok() && l.parent.Owner == other {
				c++
			}
		}
		for _, h := range pp.helpers {
			if h.parent.ok() && h.parent.Owner == other {
				c++
			}
		}
		return c
	}
	for q, b := range peers {
		qp, ok := s.procs[q]
		if !ok {
			return fmt.Errorf("dist: node %d holds a physical edge or parent link to dead node %d", id, q)
		}
		want := countTo(p, q) + countTo(qp, id)
		if b&inGPrime != 0 {
			want++ // the live G′ edge's own image
		}
		got := s.physMult[graph.NewEdge(id, q)]
		if got != want {
			return fmt.Errorf("dist: physical edge %d-%d: multiplicity index %d, records say %d", id, q, got, want)
		}
		if present := b&inPhys != 0; (want > 0) != present {
			return fmt.Errorf("dist: physical edge %d-%d: graph presence %v disagrees with %d images",
				id, q, present, want)
		}
	}
	return nil
}

// takeTouched drains the touchers list, clearing the per-processor
// flags so the next delta starts fresh.
func (s *Simulation) takeTouched() []*processor {
	procs := s.touchers.take()
	for _, p := range procs {
		p.touched = false
	}
	return procs
}

// checkProcessorLocal re-checks one processor's record-level
// invariants: no leftover transient repair state and well-formed leaf
// and helper records, plus the hard degree bound.
func (s *Simulation) checkProcessorLocal(p *processor) error {
	id := p.id
	if len(p.reps) != 0 {
		return fmt.Errorf("dist: processor %d holds leftover repair scratch", id)
	}
	if len(p.parts) != 0 {
		return fmt.Errorf("dist: processor %d holds leftover participant state", id)
	}
	if len(p.stripWait) != 0 {
		return fmt.Errorf("dist: processor %d holds leftover strip-cascade waiters", id)
	}
	if len(p.physLog) != 0 {
		return fmt.Errorf("dist: processor %d holds undrained physical-graph edits", id)
	}
	for o := range p.leaves {
		if !s.gprime.HasEdge(id, o) {
			return fmt.Errorf("dist: leaf (%d,%d): no such G' edge", id, o)
		}
		if _, dead := s.dead[o]; !dead {
			return fmt.Errorf("dist: leaf (%d,%d): other endpoint not deleted", id, o)
		}
	}
	for o, h := range p.helpers {
		if h.damaged {
			return fmt.Errorf("dist: helper (%d,%d): stale damage flag", id, o)
		}
		if _, ok := p.leaves[o]; !ok {
			return fmt.Errorf("dist: helper (%d,%d): no leaf avatar in the same slot", id, o)
		}
	}
	// Leaf characterization completeness for this processor: a leaf
	// avatar exists for every half-dead G′ edge.
	for _, x := range s.gprime.Neighbors(id) {
		if _, dead := s.dead[x]; dead {
			if _, ok := p.leaves[x]; !ok {
				return fmt.Errorf("dist: missing leaf avatar (%d,%d)", id, x)
			}
		}
	}
	if dp := s.gprime.Degree(id); s.phys.Degree(id) > 4*dp {
		return fmt.Errorf("dist: degree bound: node %d has physical degree %d > 4×%d", id, s.phys.Degree(id), dp)
	}
	return nil
}

// checkRTContaining climbs from one record to its Reconstruction
// Tree's root and re-validates that whole RT, skipping roots already
// checked this pass. Each step of the climb confirms the parent lists
// the child, so the record is part of the RT rebuilt from the root —
// an upward-only link would otherwise hide the record's own subtree
// from every rebuild. The climb is bounded: a parent chain longer than
// any valid RT's depth means a cycle or corruption.
func (s *Simulation) checkRTContaining(a addr, checkedRoots map[addr]struct{}) error {
	maxDepth := 4*haft.CeilLog2(s.gprime.NumNodes()+2) + 8
	root := a
	parent, _, ok := s.lookupRecord(root)
	if !ok {
		return fmt.Errorf("dist: no record for %v", root)
	}
	for steps := 0; parent.ok(); steps++ {
		if steps > maxDepth {
			return fmt.Errorf("dist: parent chain from %v exceeds %d (cycle?)", a, maxDepth)
		}
		grand, h, ok := s.lookupRecord(parent)
		if !ok || h == nil || (h.left != root && h.right != root) {
			return fmt.Errorf("dist: node %v: parent field %v but no child link back", root, parent)
		}
		root, parent = parent, grand
	}
	if _, done := checkedRoots[root]; done {
		return nil
	}
	checkedRoots[root] = struct{}{}
	node, err := s.reconstructRT(root, maxDepth)
	if err != nil {
		return err
	}
	if err := haft.Validate(node); err != nil {
		return fmt.Errorf("dist: RT rooted at %v invalid: %w", root, err)
	}
	return s.checkRepresentatives(node)
}

// reconstructRT rebuilds the subtree under one address from the
// distributed records, checking link mutuality on the way down. Every
// rebuilt helper has both children, so a rebuilt RT with L leaves has
// exactly L-1 helpers: the census holds by construction.
func (s *Simulation) reconstructRT(a addr, maxDepth int) (*haft.Node, error) {
	if maxDepth < 0 {
		return nil, fmt.Errorf("dist: RT under %v deeper than any valid haft (cycle?)", a)
	}
	_, h, ok := s.lookupRecord(a)
	if !ok {
		return nil, fmt.Errorf("dist: no record for %v", a)
	}
	if h == nil {
		return haft.NewLeaf(a.slot()), nil
	}
	node := &haft.Node{Height: h.height, LeafCount: h.leafCount, Payload: a.slot()}
	for dir, c := range [2]addr{h.left, h.right} {
		if !c.ok() {
			return nil, fmt.Errorf("dist: helper %v: missing child %d", a, dir)
		}
		cParent, _, ok := s.lookupRecord(c)
		if !ok {
			return nil, fmt.Errorf("dist: helper %v: child %d: no record for %v", a, dir, c)
		}
		if cParent != a {
			return nil, fmt.Errorf("dist: node %v: parent field %v disagrees with child link from %v", c, cParent, a)
		}
		child, err := s.reconstructRT(c, maxDepth-1)
		if err != nil {
			return nil, err
		}
		child.Parent = node
		if dir == 0 {
			node.Left = child
		} else {
			node.Right = child
		}
	}
	return node, nil
}

// checkRepresentatives re-derives every helper's representative within
// one reconstructed RT and compares against the stored one: the unique
// leaf of the helper's subtree simulating no helper located within that
// subtree.
func (s *Simulation) checkRepresentatives(root *haft.Node) error {
	slotOf := func(n *haft.Node) slot { return n.Payload.(slot) }
	for _, hn := range haft.Internal(root) {
		hs := slotOf(hn)
		stored := s.procs[hs.Owner].helpers[hs.Other]
		inside := make(map[slot]struct{})
		for _, x := range haft.Internal(hn) {
			inside[slotOf(x)] = struct{}{}
		}
		var free []slot
		for _, l := range haft.Leaves(hn) {
			ls := slotOf(l)
			if _, hasHelper := s.procs[ls.Owner].helpers[ls.Other]; hasHelper {
				if _, in := inside[ls]; in {
					continue
				}
			}
			free = append(free, ls)
		}
		if len(free) != 1 {
			return fmt.Errorf("dist: helper (%d,%d): %d free leaves in subtree, want exactly 1", hs.Owner, hs.Other, len(free))
		}
		if free[0] != stored.rep {
			return fmt.Errorf("dist: helper (%d,%d): stored representative %v, recomputed %v",
				hs.Owner, hs.Other, stored.rep, free[0])
		}
	}
	return nil
}
