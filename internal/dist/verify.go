package dist

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/haft"
)

// Verify revalidates the entire distributed state from scratch: record
// consistency (every tree link mutual, no dangling addresses, no
// leftover repair flags or scratch), the virtual-graph invariants
// core checks (leaf characterization, helper-per-slot, valid hafts with
// the right helper census, representative correctness), the
// incrementally maintained physical graph against a from-scratch
// reconstruction, the hard degree bound, and connectivity equivalence
// with G′. A healthy network always returns nil.
//
// Verify is the authoritative O(n) revalidation; VerifyDelta (see
// verify_delta.go) is the incremental mode that revisits only the
// processors repairs touched. A full pass covers everything, so it
// also resets the incremental pass's touched set.
func (s *Simulation) Verify() error {
	s.takeTouched()
	if err := s.checkEngineFootprint(); err != nil {
		return err
	}
	if err := s.checkTransport(); err != nil {
		return err
	}
	// Record-level checks and global index.
	idx := make(map[addr]*haft.Node)
	for id, p := range s.procs {
		if _, live := s.alive[id]; !live {
			return fmt.Errorf("dist: processor %d has records but is not alive", id)
		}
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
			idx[leafAddr(id, o)] = haft.NewLeaf(slot{Owner: id, Other: o})
		}
		for o, h := range p.helpers {
			if h.damaged {
				return fmt.Errorf("dist: helper (%d,%d): stale damage flag", id, o)
			}
			if _, ok := p.leaves[o]; !ok {
				return fmt.Errorf("dist: helper (%d,%d): no leaf avatar in the same slot", id, o)
			}
			idx[helperAddr(id, o)] = &haft.Node{
				Height:    h.height,
				LeafCount: h.leafCount,
				Payload:   slot{Owner: id, Other: o},
			}
		}
	}
	// Leaf characterization completeness: L(v,x) exists iff (v,x) ∈ G′,
	// v alive, x deleted.
	for v := range s.alive {
		p := s.procs[v]
		for _, x := range s.gprime.Neighbors(v) {
			if _, dead := s.dead[x]; dead {
				if _, ok := p.leaves[x]; !ok {
					return fmt.Errorf("dist: missing leaf avatar (%d,%d)", v, x)
				}
			}
		}
	}

	// Wire child links and check mutuality.
	for id, p := range s.procs {
		for o, h := range p.helpers {
			self := helperAddr(id, o)
			node := idx[self]
			for dir, c := range [2]addr{h.left, h.right} {
				if !c.ok() {
					return fmt.Errorf("dist: helper %v: missing child %d", self, dir)
				}
				child := idx[c]
				if child == nil {
					return fmt.Errorf("dist: helper %v: child %v has no record", self, c)
				}
				if child.Parent != nil {
					return fmt.Errorf("dist: node %v claimed by two parents", c)
				}
				child.Parent = node
				if dir == 0 {
					node.Left = child
				} else {
					node.Right = child
				}
			}
		}
	}
	parentOf := func(a addr) addr {
		if a.Kind == kindLeaf {
			return s.procs[a.Owner].leaves[a.Other].parent
		}
		return s.procs[a.Owner].helpers[a.Other].parent
	}
	for a, node := range idx {
		stored := parentOf(a)
		switch {
		case stored.ok() && node.Parent == nil:
			return fmt.Errorf("dist: node %v: parent field %v but no child link back", a, stored)
		case !stored.ok() && node.Parent != nil:
			return fmt.Errorf("dist: node %v: linked as a child but parent field empty", a)
		case stored.ok() && idx[stored] != node.Parent:
			return fmt.Errorf("dist: node %v: parent field %v disagrees with child link", a, stored)
		}
	}

	// Reconstructed RTs are valid hafts with the right helper census.
	// Counting every root's leaves also proves each leaf hangs under a
	// root — a parent-pointer cycle would leave its subtree unreached.
	leafCensus := 0
	for a, node := range idx {
		if node.Parent != nil {
			continue
		}
		if err := haft.Validate(node); err != nil {
			return fmt.Errorf("dist: RT rooted at %v invalid: %w", a, err)
		}
		leaves := haft.Leaves(node)
		leafCensus += len(leaves)
		if node.IsLeaf {
			continue
		}
		internal := haft.Internal(node)
		if len(internal) != len(leaves)-1 {
			return fmt.Errorf("dist: RT at %v with %d leaves has %d helpers, want %d",
				a, len(leaves), len(internal), len(leaves)-1)
		}
	}
	totalLeaves := 0
	for _, p := range s.procs {
		totalLeaves += len(p.leaves)
	}
	if leafCensus != totalLeaves {
		return fmt.Errorf("dist: %d leaf avatars exist but %d are reachable from RT roots", totalLeaves, leafCensus)
	}

	// Representative correctness: each helper's stored representative
	// is the unique leaf of its subtree simulating no helper located
	// within that subtree.
	slotOf := func(n *haft.Node) slot { return n.Payload.(slot) }
	for id, p := range s.procs {
		for o, h := range p.helpers {
			node := idx[helperAddr(id, o)]
			inside := make(map[slot]struct{})
			for _, x := range haft.Internal(node) {
				inside[slotOf(x)] = struct{}{}
			}
			var free []slot
			for _, l := range haft.Leaves(node) {
				ls := slotOf(l)
				if _, hasHelper := s.procs[ls.Owner].helpers[ls.Other]; hasHelper {
					if _, in := inside[ls]; in {
						continue
					}
				}
				free = append(free, ls)
			}
			if len(free) != 1 {
				return fmt.Errorf("dist: helper (%d,%d): %d free leaves in subtree, want exactly 1", id, o, len(free))
			}
			if free[0] != h.rep {
				return fmt.Errorf("dist: helper (%d,%d): stored representative %v, recomputed %v",
					id, o, h.rep, free[0])
			}
		}
	}

	// The incrementally maintained physical graph must match the
	// from-scratch reconstruction, then satisfy the hard degree bound
	// and connectivity equivalence with G′. The checks below only read,
	// so the maintained graph is used directly, no snapshot.
	if err := s.checkPhysIncremental(); err != nil {
		return err
	}
	// The incremental connectivity certificate audited against
	// from-scratch BFS partitions; checkConnectivity below stays the
	// independent authority the certificate itself is judged by.
	if err := s.checkCertFull(); err != nil {
		return err
	}
	phys := s.phys
	wantMax := 0.0
	for v := range s.alive {
		dp := s.gprime.Degree(v)
		if got := phys.Degree(v); got > 4*dp {
			return fmt.Errorf("dist: degree bound: node %d has physical degree %d > 4×%d", v, got, dp)
		}
		if dp > 0 {
			if r := float64(phys.Degree(v)) / float64(dp); r > wantMax {
				wantMax = r
			}
		}
	}
	// The incremental max-degree-ratio tracker (stubs.go) audited
	// against the O(n) rebuild it replaced at the soak checkpoints. The
	// ratios are computed by the identical float division, so equality
	// is exact (ties may be attained by different nodes).
	if gotMax, at := s.MaxDegreeRatio(); gotMax != wantMax {
		return fmt.Errorf("dist: degree tracker: incremental max ratio %v (node %d), rebuild %v", gotMax, at, wantMax)
	}
	return s.checkConnectivity(phys)
}

// checkEngineFootprint catches phantom open-loop engine state: an
// in-flight repair epoch that no processor holds scratch for — while
// the network is quiet, so nothing carrying the epoch is in transit —
// can never complete in-band. Skipped while traffic is pending: a
// freshly launched repair's scratch may still be in its notification
// messages.
func (s *Simulation) checkEngineFootprint() error {
	if !s.netQuiet() {
		return nil
	}
	for _, e := range s.phantomEpochs() {
		return fmt.Errorf("dist: phantom in-flight repair epoch %d: no processor holds scratch for it", e)
	}
	return nil
}

// checkTransport runs the backend's own state validation when it has
// one (channet: logical-clock sanity and timer ownership; wirenet:
// reliability-state invariants).
func (s *Simulation) checkTransport() error {
	if v, ok := netAs[interface{ Validate() error }](s.net); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("dist: transport: %w", err)
		}
	}
	return nil
}

// checkConnectivity verifies that live processors are connected in the
// physical network exactly when they are connected in G′.
func (s *Simulation) checkConnectivity(phys *graph.Graph) error {
	live := s.LiveNodes()
	seen := make(map[NodeID]struct{})
	for _, src := range live {
		if _, done := seen[src]; done {
			continue
		}
		gp := s.gprime.BFS(src)
		ph := phys.BFS(src)
		for _, v := range live {
			_, inPrime := gp[v]
			_, inPhys := ph[v]
			if inPrime != inPhys {
				return fmt.Errorf("dist: connectivity: %d~%d is %v in G' but %v in actual network",
					src, v, inPrime, inPhys)
			}
			if inPhys {
				seen[v] = struct{}{}
			}
		}
	}
	return nil
}
