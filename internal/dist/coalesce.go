package dist

// Coalescing admission queue.
//
// Under real churn a large fraction of submitted operations self-cancel
// before the protocol ever needs to act on them: an insert(v) followed
// by delete(v) while the insert is still pending, or several deletions
// landing in one damaged region that could run as the waves of a single
// batch. The baseline engine admits every operation individually and
// pays full message cost for each. With coalescing enabled
// (SetCoalescing / protocol.WithCoalescing), Submit filters the stream
// before it reaches the admission queue:
//
//   - Cancellation. A submitted delete(v) that finds a still-pending
//     insert(v) annihilates with it: both ops leave the queue and
//     report EventOpCancelled instead of ever touching the network.
//     Cancellation happens only when it is invisible to every other
//     operation — see tryCancel for the exact rule — so every
//     non-cancelled op keeps the verdict and effect it would have had
//     in the full serialized replay. Note that an APPLIED insert
//     followed by a delete is NOT a no-op (the repair leaves
//     reconstruction-tree residue among the neighbors), which is why
//     only pending inserts cancel: the pair is elided entirely, and
//     the engine's behavior is bit-identical to the serialized
//     blocking replay of the EFFECTIVE sequence (the submission order
//     with cancelled pairs removed) — the contract the coalescing
//     twins of TestAsyncEquivalence* and FuzzAsyncChurn assert.
//
//   - Merging. A submitted delete whose footprint overlaps a pending
//     delete's footprint is chained behind it (the same driver-side
//     region machinery that serializes every conflicting deletion), and
//     when the predecessor's repair completes, the finishing leader
//     hands off directly AND the death notification pre-appoints the
//     repair leader — the tournament winner is always the smallest
//     notified ID, which the driver already knows — so the merged
//     repair skips its election entirely: exactly 2(k-1) election
//     messages saved for k notified processors, with the identical
//     healed graph (the election never influences the repair's
//     outcome, only who coordinates it, and the appointed leader IS
//     the ID the tournament would elect).
//
//   - Hold window. Cancellation and merging only see ops that are
//     still pending, so each submitted op is held for Window engine
//     ticks before it may launch (merged ops wait on their
//     predecessor instead). Holds are counted in driver Ticks, never
//     in transport rounds — channet's pulse counter need not advance
//     while the network idles, and a round-based window could
//     livelock there. MaxHeld bounds the latency cost: when that many
//     ops are held, every hold flushes at once.
//
// All decisions read only driver-side state (the pending queue, the
// maintained graphs, and Tick counts), so they are identical on every
// transport backend — the healed graph stays bit-identical across
// simnet, seeded channet, and the wire fabric.

// CoalesceConfig configures the coalescing admission queue.
type CoalesceConfig struct {
	// Window is the number of engine Ticks a submitted operation is
	// held in the pending queue before it becomes admissible, giving
	// later submissions the chance to cancel or merge with it. 0 holds
	// nothing (ops coalesce only against operations still pending for
	// other reasons).
	Window int
	// MaxHeld caps the number of simultaneously held operations: when
	// reached, every hold is flushed. <= 0 means the default (64).
	MaxHeld int
}

// defaultMaxHeld bounds held ops when the config leaves MaxHeld zero.
const defaultMaxHeld = 64

// CoalesceStats counts the coalescing queue's decisions.
type CoalesceStats struct {
	// Submitted counts every operation submitted while coalescing was
	// enabled.
	Submitted int
	// Cancelled counts operations elided by insert/delete pair
	// annihilation (two per pair).
	Cancelled int
	// Merged counts deletions chained behind an overlapping pending
	// deletion (launched with a pre-appointed leader).
	Merged int
	// Admitted counts submitted operations that reached execution: an
	// insert applied or a delete launched. Rejected and cancelled
	// operations are in neither count.
	Admitted int
	// MessagesSaved is the number of protocol messages provably
	// avoided: exactly 2(k-1) skipped election messages per merged
	// launch with k notified processors, plus a static floor for each
	// cancelled pair (the notifications and election of the repair the
	// delete would have run, sized by the cancelled insert's degree —
	// the walks, probes, strip, and merge plan it also avoids are not
	// statically knowable and are NOT counted; EXP-COALESCE measures
	// the true reduction).
	MessagesSaved int
}

// SetCoalescing enables the coalescing admission queue for subsequent
// Submit calls. Blocking calls (Insert, Delete, DeleteBatch) are never
// coalesced — they require an idle engine, so there is nothing pending
// to coalesce against.
func (s *Simulation) SetCoalescing(cfg CoalesceConfig) {
	if cfg.Window < 0 {
		cfg.Window = 0
	}
	if cfg.MaxHeld <= 0 {
		cfg.MaxHeld = defaultMaxHeld
	}
	s.coalesceOn = true
	s.coalCfg = cfg
}

// CoalesceStats returns the coalescing queue's counters.
func (s *Simulation) CoalesceStats() CoalesceStats { return s.coalStats }

// submitCoalesced routes one submitted operation through the
// coalescing filter: annihilate with a pending insert, chain behind an
// overlapping pending delete, or enqueue held.
func (s *Simulation) submitCoalesced(op Op, seq int) {
	s.coalStats.Submitted++
	if op.Kind == OpDelete {
		if s.tryCancel(op, seq) {
			return
		}
		if s.tryMerge(op, seq) {
			return
		}
	}
	s.pending = append(s.pending, &pendingOp{
		op: op, seq: seq, submitRound: s.net.Round(), after: noNode,
		hold: s.coalCfg.Window,
	})
}

// tryCancel annihilates delete(v) with a still-pending insert(v), when
// doing so is invisible to every other operation. The pair may be
// elided exactly when no other pending op's verdict or effect depends
// on v's brief existence:
//
//   - v appears in exactly one pending op, the insert I (a second op
//     naming v — another delete, or a duplicate insert — pins the
//     serialization order and aborts the cancel);
//   - no op submitted after I inserts a node with v as a neighbor
//     (serialized it would attach to v and succeed; with the pair
//     elided it would be rejected);
//   - no op submitted after I deletes one of I's neighbors (v would be
//     in that repair's notified set, so the healed graph would depend
//     on v's existence).
//
// Ops submitted BEFORE I need no check: at their serialization points
// v does not exist in either world, so their verdicts agree. Deletes
// of non-neighbors never reach v: a freshly inserted node owns no
// records until a repair touches it, so it sits in no reconstruction
// tree and only its physical neighbors' deaths involve it.
func (s *Simulation) tryCancel(op Op, seq int) bool {
	v := op.V
	var ins *pendingOp
	insAt := -1
	for i, po := range s.pending {
		if po.op.V == v {
			if po.op.Kind != OpInsert || ins != nil {
				return false
			}
			ins, insAt = po, i
			continue
		}
		if ins == nil {
			continue // submitted before the insert: order-independent
		}
		switch po.op.Kind {
		case OpInsert:
			for _, x := range po.op.Nbrs {
				if x == v {
					return false
				}
			}
		case OpDelete:
			for _, x := range ins.op.Nbrs {
				if x == po.op.V {
					return false
				}
			}
		}
	}
	if ins == nil {
		return false
	}
	s.pending = append(s.pending[:insAt], s.pending[insAt+1:]...)
	s.coalStats.Cancelled += 2
	if d := len(ins.op.Nbrs); d > 0 {
		// Static floor: the elided repair's d death notifications plus
		// its 2(k-1) election messages with k >= d participants.
		s.coalStats.MessagesSaved += d + 2*(d-1)
	}
	round := s.net.Round()
	s.emit(Event{
		Kind: EventOpCancelled, Seq: ins.seq, V: v, Op: ins.op,
		Latency: round - ins.submitRound,
	})
	s.emit(Event{Kind: EventOpCancelled, Seq: seq, V: v, Op: op})
	return true
}

// tryMerge chains delete(v) behind the last pending deletion whose
// footprint overlaps v's, so the two run as consecutive waves of one
// conflict group: the predecessor's finishing leader hands off the
// launch, and the death notifications pre-appoint the leader, skipping
// the merged repair's election. The chained op re-enters the NORMAL
// admission path when its predecessor completes — revalidated against
// a fresh footprint — so intervening submissions keep their serialized
// order.
func (s *Simulation) tryMerge(op Op, seq int) bool {
	v := op.V
	if !s.Alive(v) {
		return false // rejection or a pending create: the normal path decides
	}
	for _, po := range s.pending {
		if po.op.V == v {
			return false
		}
	}
	region := s.deleteRegion(v)
	var last *pendingOp
	for _, po := range s.pending {
		if po.op.Kind != OpDelete || !s.Alive(po.op.V) {
			continue
		}
		if po.region == nil {
			po.region, po.regionGen = s.deleteRegion(po.op.V), s.stateGen
		}
		if s.overlap(region, po.region) {
			last = po
		}
	}
	if last == nil {
		return false
	}
	s.pending = append(s.pending, &pendingOp{
		op: op, seq: seq, submitRound: s.net.Round(),
		after: last.op.V, merged: true, region: region, regionGen: s.stateGen,
	})
	s.coalStats.Merged++
	return true
}

// flushHeldIfFull zeroes every hold once MaxHeld ops are held at once,
// bounding the latency a hold window can add under sustained pressure.
func (s *Simulation) flushHeldIfFull() {
	held := 0
	for _, po := range s.pending {
		if po.hold > 0 {
			held++
		}
	}
	if held < s.coalCfg.MaxHeld {
		return
	}
	for _, po := range s.pending {
		po.hold = 0
	}
}

// tickHolds counts one engine Tick against every held op, re-running
// admission when any window expires.
func (s *Simulation) tickHolds() {
	expired := false
	for _, po := range s.pending {
		if po.hold > 0 {
			po.hold--
			if po.hold == 0 {
				expired = true
			}
		}
	}
	if expired {
		s.admit()
	}
}
