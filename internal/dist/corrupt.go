// Corruption fault injection for the self-stabilizing audit layer.
// Corrupt perturbs live processor state the way a transient fault
// would: silently. No markTouched, no physical-graph log — a bit flip
// updates no bookkeeping — which is exactly why the incremental
// VerifyDelta cannot see these faults (it runs the record checker only
// on touched and sampled processors) and the full Verify, the neighbor
// exchanges of the audit layer, or nothing at all will. Verify runs the
// same record checker on every processor, then the checks only a
// global pass can make (processor set, physical-graph reconstruction,
// certificate partitions, degree tracker, connectivity).
//
// Injection is driver-side and deterministic for a given rng stream:
// candidates are enumerated in canonical order (live processors
// ascending, records ascending) and the rng picks one. Mid-churn
// injection avoids records inside any in-flight or pending repair
// footprint and processors holding live repair scratch — corrupting a
// region a repair is rewriting this very round would test the race,
// not the healing.
package dist

import (
	"fmt"
	"math/rand"
	"sort"
)

// CorruptMode selects what kind of state a Corrupt call perturbs.
type CorruptMode int

const (
	// CorruptLeafCount inflates a helper's stored leaf count.
	CorruptLeafCount CorruptMode = iota
	// CorruptHeight inflates a helper's stored height.
	CorruptHeight
	// CorruptRep points a helper's representative at its own slot —
	// well-formed (the owner is alive) but always wrong (the free-leaf
	// rule forbids it).
	CorruptRep
	// CorruptDroppedParent clears a record's parent pointer, orphaning
	// it from a parent that still lists it.
	CorruptDroppedParent
	// CorruptDanglingParent points a record's parent at a helper that
	// does not exist (the owner is kept alive so audit claims are
	// answerable).
	CorruptDanglingParent
	// CorruptChildPtr points one child side of a helper at a
	// nonexistent record, displacing the true child (which still
	// records the helper as its parent).
	CorruptChildPtr
	// CorruptDamageFlag raises a helper's Breakflag for an epoch whose
	// repair is long finished (a dead node's ID — IDs are never reused,
	// so no live repair can collide with it).
	CorruptDamageFlag
	// CorruptStaleEpoch plants leader or participant scratch for a
	// long-finished epoch, as if a repair's teardown had been lost.
	CorruptStaleEpoch
	// CorruptFootprint plants a phantom in-flight repair footprint in
	// the open-loop engine: an epoch no processor has ever heard of,
	// which can therefore never complete in-band.
	CorruptFootprint
	// CorruptClock skews one processor's logical clock far negative.
	// Only transports with per-processor clocks (channet) support it;
	// on simnet the mode reports unsupported.
	CorruptClock
	// CorruptCertificate silently perturbs the incremental connectivity
	// certificate (cert.go): either forges one live processor's
	// component label or skews the component counters — driver state
	// the in-band record audit cannot see, healed by the driver-side
	// certificate sweep instead.
	CorruptCertificate
)

// CorruptModes lists every mode, for table-driven tests.
var CorruptModes = []CorruptMode{
	CorruptLeafCount, CorruptHeight, CorruptRep,
	CorruptDroppedParent, CorruptDanglingParent, CorruptChildPtr,
	CorruptDamageFlag, CorruptStaleEpoch, CorruptFootprint,
	CorruptClock, CorruptCertificate,
}

func (m CorruptMode) String() string {
	switch m {
	case CorruptLeafCount:
		return "leafcount"
	case CorruptHeight:
		return "height"
	case CorruptRep:
		return "rep"
	case CorruptDroppedParent:
		return "dropped-parent"
	case CorruptDanglingParent:
		return "dangling-parent"
	case CorruptChildPtr:
		return "child-ptr"
	case CorruptDamageFlag:
		return "damage-flag"
	case CorruptStaleEpoch:
		return "stale-epoch"
	case CorruptFootprint:
		return "footprint"
	case CorruptClock:
		return "clock"
	case CorruptCertificate:
		return "certificate"
	}
	return fmt.Sprintf("corrupt(%d)", int(m))
}

// CorruptReport describes one injected fault.
type CorruptReport struct {
	Mode   CorruptMode
	Victim NodeID // the processor whose state was perturbed
	Record addr   // the perturbed record, when one record was targeted
	Detail string
}

// Corrupt injects one fault of the given mode, driven by rng. It
// reports false when the mode found no viable target in the current
// state (no helpers yet, no dead epochs to impersonate, a transport
// without logical clocks) — a no-op, not an error. Injection never
// touches the driver's bookkeeping: the fault is invisible until a
// full Verify or the audit layer looks.
func (s *Simulation) Corrupt(mode CorruptMode, rng *rand.Rand) (CorruptReport, bool) {
	// The fault writes processor state outside any pulse: footprints
	// computed before it are stale.
	s.stateGen++
	rep := CorruptReport{Mode: mode}
	switch mode {
	case CorruptLeafCount, CorruptHeight, CorruptRep, CorruptDamageFlag, CorruptChildPtr:
		p, o, ok := s.corruptPickHelper(rng, mode)
		if !ok {
			return rep, false
		}
		h := p.helpers[o]
		rep.Victim, rep.Record = p.id, helperAddr(p.id, o)
		switch mode {
		case CorruptLeafCount:
			d := 1 + rng.Intn(7)
			h.leafCount += d
			rep.Detail = fmt.Sprintf("leafCount +%d", d)
		case CorruptHeight:
			d := 1 + rng.Intn(3)
			h.height += d
			rep.Detail = fmt.Sprintf("height +%d", d)
		case CorruptRep:
			h.rep = slot{Owner: p.id, Other: o}
			rep.Detail = "rep -> own slot"
		case CorruptDamageFlag:
			e, ok := s.corruptDeadEpoch(rng)
			if !ok {
				return rep, false
			}
			h.damaged, h.depoch = true, e
			rep.Detail = fmt.Sprintf("breakflag epoch %d", e)
		case CorruptChildPtr:
			side := rng.Intn(2)
			c := h.left
			if side == 1 {
				c = h.right
			}
			bogus := addr{Owner: c.Owner, Other: s.corruptBogusID(rng), Kind: c.Kind}
			if side == 0 {
				h.left = bogus
			} else {
				h.right = bogus
			}
			rep.Detail = fmt.Sprintf("child %d: %v -> %v", side, c, bogus)
		}
		return rep, true

	case CorruptDroppedParent, CorruptDanglingParent:
		p, a, parent, ok := s.corruptPickParented(rng)
		if !ok {
			return rep, false
		}
		rep.Victim, rep.Record = p.id, a
		old := *parent
		if mode == CorruptDroppedParent {
			*parent = addr{}
			rep.Detail = fmt.Sprintf("parent %v -> cleared", old)
		} else {
			*parent = addr{Owner: old.Owner, Other: s.corruptBogusID(rng), Kind: kindHelper}
			rep.Detail = fmt.Sprintf("parent %v -> %v", old, *parent)
		}
		return rep, true

	case CorruptStaleEpoch:
		p, ok := s.corruptPickProc(rng, func(p *processor) bool {
			return len(p.leaves)+len(p.helpers) > 0
		})
		if !ok {
			return rep, false
		}
		e, ok := s.corruptDeadEpoch(rng)
		if !ok {
			return rep, false
		}
		rep.Victim = p.id
		if rng.Intn(2) == 0 {
			if p.reps == nil {
				p.reps = make(map[NodeID]*repairState)
			}
			p.reps[e] = &repairState{
				roots: make(map[addr]struct{}),
				comps: make(map[addr]*component),
			}
			rep.Detail = fmt.Sprintf("stale leader scratch, epoch %d", e)
		} else {
			if p.parts == nil {
				p.parts = make(map[NodeID]*partState)
			}
			p.parts[e] = &partState{
				v: e, btParent: noNode, btLeft: noNode, btRight: noNode,
				haveDeath: true, champ: p.id, leader: noNode, walksOut: 1,
			}
			rep.Detail = fmt.Sprintf("stale participant scratch, epoch %d", e)
		}
		return rep, true

	case CorruptFootprint:
		e := s.corruptBogusID(rng)
		if _, dup := s.inflight[e]; dup {
			return rep, false
		}
		s.addFlight(e, &flight{
			v:           e,
			region:      []NodeID{e},
			submitRound: s.net.Round(),
		})
		rep.Victim = e
		rep.Detail = fmt.Sprintf("phantom in-flight epoch %d", e)
		return rep, true

	case CorruptClock:
		sk, canSkew := netAs[interface{ SkewClock(NodeID, int64) }](s.net)
		if !canSkew {
			return rep, false
		}
		p, ok := s.corruptPickProc(rng, s.hasRemoteLink)
		if !ok {
			return rep, false
		}
		delta := -(int64(1) << 22)
		sk.SkewClock(p.id, delta)
		rep.Victim = p.id
		rep.Detail = fmt.Sprintf("clock %+d", delta)
		return rep, true

	case CorruptCertificate:
		// Two faces of certificate rot: a forged component label on one
		// live processor (caught by the per-node label-consistency
		// check; the victim needs a physical neighbor for the forgery
		// to be observable — on an isolated node a fresh unique label
		// is just a legal relabeling), or a silently skewed component
		// counter (caught by the O(1) count-equality check). Both heal
		// by the audit layer's certificate sweep rebuilding the
		// trackers from the graphs.
		if rng.Intn(2) == 0 {
			p, ok := s.corruptPickProc(rng, func(p *processor) bool {
				return s.phys.Degree(p.id) >= 1
			})
			if !ok {
				return rep, false
			}
			f := s.physCC.ForgeLabel(p.id)
			rep.Victim = p.id
			rep.Detail = fmt.Sprintf("physical component label forged -> %d", f)
		} else {
			rep.Victim = noNode
			if rng.Intn(2) == 0 {
				s.physCC.SkewCount(1)
				rep.Detail = "physical component count +1"
			} else {
				s.gpCC.SkewCount(1)
				rep.Detail = "G' marked-component count +1"
			}
		}
		return rep, true
	}
	return rep, false
}

// hasRemoteLink reports whether some record of p links to another
// processor — the condition under which p's own audit probes draw
// replies that heal a skewed logical clock.
func (s *Simulation) hasRemoteLink(p *processor) bool {
	for _, l := range p.leaves {
		if l.parent.ok() && l.parent.Owner != p.id {
			return true
		}
	}
	for _, h := range p.helpers {
		for _, a := range [3]addr{h.parent, h.left, h.right} {
			if a.ok() && a.Owner != p.id {
				return true
			}
		}
	}
	return false
}

// corruptEligible reports whether a processor's records are safe to
// perturb mid-churn: outside every in-flight and pending repair
// footprint and not holding live repair scratch.
func (s *Simulation) corruptEligible() map[NodeID]bool {
	excluded := make(map[NodeID]struct{})
	for _, f := range s.inflight {
		for _, v := range f.region {
			excluded[v] = struct{}{}
		}
	}
	for _, po := range s.pending {
		for _, v := range po.region {
			excluded[v] = struct{}{}
		}
	}
	ok := make(map[NodeID]bool, len(s.alive))
	for v, p := range s.procs {
		_, ex := excluded[v]
		ok[v] = !ex && !p.auditBusy() && !p.anyDamaged()
	}
	return ok
}

// corruptPickProc picks one eligible processor satisfying pred,
// uniformly from the canonical ordering.
func (s *Simulation) corruptPickProc(rng *rand.Rand, pred func(*processor) bool) (*processor, bool) {
	eligible := s.corruptEligible()
	var cands []*processor
	for _, v := range s.LiveNodes() {
		p := s.procs[v]
		if eligible[v] && (pred == nil || pred(p)) {
			cands = append(cands, p)
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	return cands[rng.Intn(len(cands))], true
}

// corruptPickHelper picks one eligible helper record. Structural child
// modes need both child pointers set (always true on legal records;
// checked anyway).
func (s *Simulation) corruptPickHelper(rng *rand.Rand, mode CorruptMode) (*processor, NodeID, bool) {
	eligible := s.corruptEligible()
	type cand struct {
		p *processor
		o NodeID
	}
	var cands []cand
	for _, v := range s.LiveNodes() {
		if !eligible[v] {
			continue
		}
		p := s.procs[v]
		for _, o := range sortedRecordKeys(p.helpers) {
			h := p.helpers[o]
			if mode == CorruptChildPtr && (!h.left.ok() || !h.right.ok()) {
				continue
			}
			cands = append(cands, cand{p: p, o: o})
		}
	}
	if len(cands) == 0 {
		return nil, 0, false
	}
	c := cands[rng.Intn(len(cands))]
	return c.p, c.o, true
}

// corruptPickParented picks one eligible record (leaf or helper) whose
// parent pointer is set, returning the pointer for in-place mutation.
func (s *Simulation) corruptPickParented(rng *rand.Rand) (*processor, addr, *addr, bool) {
	eligible := s.corruptEligible()
	type cand struct {
		p      *processor
		a      addr
		parent *addr
	}
	var cands []cand
	for _, v := range s.LiveNodes() {
		if !eligible[v] {
			continue
		}
		p := s.procs[v]
		for _, o := range sortedRecordKeys(p.leaves) {
			if l := p.leaves[o]; l.parent.ok() {
				cands = append(cands, cand{p: p, a: leafAddr(v, o), parent: &l.parent})
			}
		}
		for _, o := range sortedRecordKeys(p.helpers) {
			if h := p.helpers[o]; h.parent.ok() {
				cands = append(cands, cand{p: p, a: helperAddr(v, o), parent: &h.parent})
			}
		}
	}
	if len(cands) == 0 {
		return nil, addr{}, nil, false
	}
	c := cands[rng.Intn(len(cands))]
	return c.p, c.a, c.parent, true
}

// corruptDeadEpoch picks the ID of a long-deleted processor: an epoch
// whose repair is finished and — IDs are never reused — that no future
// repair can collide with.
func (s *Simulation) corruptDeadEpoch(rng *rand.Rand) (NodeID, bool) {
	if len(s.dead) == 0 {
		return 0, false
	}
	ids := make([]NodeID, 0, len(s.dead))
	for v := range s.dead {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[rng.Intn(len(ids))], true
}

// corruptBogusID fabricates a node ID that names no record anywhere:
// negative, which no processor or slot ever uses (IDs are
// non-negative; noNode is reserved).
func (s *Simulation) corruptBogusID(rng *rand.Rand) NodeID {
	return NodeID(-2 - rng.Intn(1<<16))
}
