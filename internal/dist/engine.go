package dist

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// The open-loop churn engine.
//
// The paper's model is an adversary issuing an arbitrary interleaved
// sequence of insertions and deletions; the blocking API serialized
// that world — every Delete ran the simulator to quiescence before the
// caller could move. The engine below inverts the control flow:
// Submit enqueues operations at any time (including while repairs are
// in flight), Tick/Run advance the network round by round under caller
// control, and typed completion events are drained via Poll or pushed
// through an observer. The blocking calls survive as thin wrappers
// (Delete = Submit + Drain), so every differential guarantee carries
// over unchanged.
//
// Scheduling semantics: operations are applied as if executed one at a
// time in submission order (the serialized blocking replay — the twin
// the differential tests and FuzzAsyncChurn check against), but
// operations whose footprints are disjoint run concurrently. The
// footprint ("region") of a deletion is the processor set its repair
// can possibly touch: the deleted node's physical neighborhood (the
// notified set and the fresh-leaf owners) plus every owner of a record
// in any Reconstruction Tree holding one of its records — repairs
// walk, strip, and merge strictly within those trees, and the merged
// tree's new helpers live on representative slots drawn from them, so
// the region is closed under everything the repair does. An insert's
// footprint is the new node and its attachment points. The engine
// admits a pending operation the moment its region is disjoint from
// every in-flight repair AND from every earlier-submitted operation
// still waiting — region admission, checked against live epochs by the
// scheduler (an admission decision, i.e. the adversary's move order;
// the repair protocol itself remains fully in-band). DeleteBatch runs
// through the same admission, its members queued in ascending order.
// Inserts landing in a damaged region are therefore deferred until the
// region's repair completes and are released by its leader's
// completion signal.
//
// Repair completion is detected in-band: every merge-plan instruction
// is acked back to the leader (msgMergeAck), whose count reaching zero
// retires the repair and registers it on the done list the engine
// drains after each round. A completing repair hands its serialized
// region off leader-to-leader: the finishing leader itself sends the
// next deletion's death notifications — one per notified member — so
// no driver barrier remains between the waves of a conflict group.

// OpKind distinguishes the two operation flavors.
type OpKind uint8

const (
	// OpInsert adds a node attached to existing live neighbors.
	OpInsert OpKind = iota + 1
	// OpDelete removes a node, triggering the distributed repair.
	OpDelete
)

// Op is one churn operation submitted to the open-loop engine.
type Op struct {
	Kind OpKind
	V    NodeID
	Nbrs []NodeID // OpInsert only
}

func (o Op) String() string {
	if o.Kind == OpInsert {
		return fmt.Sprintf("insert %d %v", o.V, o.Nbrs)
	}
	return fmt.Sprintf("delete %d", o.V)
}

// EventKind tags a completion event.
type EventKind uint8

const (
	// EventRepairDone: one deletion's repair finished; Repair carries
	// its measured cost. Under overlapping repairs the additive fields
	// are the deltas between launch and completion (concurrent epochs
	// share rounds), and the Max* fields are high-water marks since the
	// last stats reset.
	EventRepairDone EventKind = iota + 1
	// EventInsertApplied: a submitted insertion was admitted and
	// applied.
	EventInsertApplied
	// EventBatchDone: a blocking DeleteBatch finished; Batch carries
	// the full batch statistics.
	EventBatchDone
	// EventOpRejected: a submitted operation failed validation at its
	// serialization point (deleting a dead node, inserting onto a
	// neighbor that a previously submitted deletion removed, a reused
	// ID). Err holds the same error the blocking call would return.
	EventOpRejected
	// EventOpCancelled: the coalescing queue annihilated this operation
	// with its pending partner — a delete(v) arriving while insert(v)
	// was still pending elides both (see coalesce.go). Fired for each
	// half of the pair, insert first; neither op touches the network.
	EventOpCancelled
)

// Event is one typed completion notification from the engine.
type Event struct {
	Kind EventKind
	// Seq is the submission sequence number of the operation this
	// event concludes: the i-th op ever passed to Submit has Seq i
	// (counting from 1). It ties an event to its submission even when
	// arrival order differs — an op rejected at submission (target
	// already dead) reports immediately, jumping ahead of an
	// earlier-submitted repair still in flight. Events not tied to a
	// submitted op carry 0: the repairs of blocking Delete and
	// DeleteBatch members, and EventBatchDone.
	Seq int
	// V is the node the event is about (the deleted or inserted node).
	V NodeID
	// Op is the rejected or cancelled operation (EventOpRejected,
	// EventOpCancelled).
	Op Op
	// Repair is the completed repair's cost (EventRepairDone).
	Repair RecoveryStats
	// Batch is the completed batch's cost (EventBatchDone).
	Batch BatchStats
	// Latency is the number of network rounds between the operation's
	// submission and this event.
	Latency int
	// Err is why the operation was rejected (EventOpRejected).
	Err error
}

// pendingOp is one submitted operation waiting for admission.
type pendingOp struct {
	op          Op
	seq         int // submission sequence number (Event.Seq)
	submitRound int
	// region is the footprint computed at the last admission attempt,
	// at state generation regionGen; blockers the in-flight epochs that
	// overlapped it (for handoff attribution).
	region    []NodeID
	regionGen uint64
	blockers  []NodeID
	// from is the finishing leader that released this op, when one did:
	// the launch sends the death notifications leader-to-leader.
	from     NodeID
	haveFrom bool
	// hold is the coalescing window: the number of engine Ticks this op
	// must stay pending (and coalescible) before it may launch. merged
	// marks a delete chained behind an overlapping pending delete by the
	// coalescing queue; it waits for the epoch in after (noNode once
	// released), then re-enters the normal admission path, and its
	// launch pre-appoints the repair leader (see coalesce.go).
	hold   int
	merged bool
	after  NodeID
}

// flight is one repair in progress.
type flight struct {
	v           NodeID
	seq         int // submission sequence number (Event.Seq)
	degree      int
	notify      int
	region      []NodeID
	statsAt     transport.Stats
	submitRound int
}

// Submit enqueues operations for asynchronous execution, admitting
// immediately whatever the in-flight repairs allow. Structural
// validity (self edges, duplicate neighbors) is checked synchronously;
// state-dependent validity is checked at each operation's
// serialization point and reported as EventOpRejected, exactly
// mirroring the error the blocking call would have returned.
func (s *Simulation) Submit(ops ...Op) error {
	for _, op := range ops {
		switch op.Kind {
		case OpDelete:
		case OpInsert:
			seen := make(map[NodeID]struct{}, len(op.Nbrs))
			for _, x := range op.Nbrs {
				if x == op.V {
					return fmt.Errorf("dist: submit insert %d: self edge", op.V)
				}
				if _, dup := seen[x]; dup {
					return fmt.Errorf("dist: submit insert %d: duplicate neighbor %d", op.V, x)
				}
				seen[x] = struct{}{}
			}
		default:
			return fmt.Errorf("dist: submit: unknown op kind %d", op.Kind)
		}
	}
	s.async = true
	for _, op := range ops {
		op.Nbrs = append([]NodeID(nil), op.Nbrs...)
		s.opSeq++
		if s.coalesceOn {
			s.submitCoalesced(op, s.opSeq)
			continue
		}
		s.pending = append(s.pending, &pendingOp{
			op: op, seq: s.opSeq, submitRound: s.net.Round(), after: noNode,
		})
	}
	if s.coalesceOn {
		s.flushHeldIfFull()
	}
	s.admit()
	s.flushObserver()
	return nil
}

// Tick advances the network one round and processes whatever completed
// or became admissible: repairs that proved themselves done hand off
// to their successors, newly unblocked operations launch, events fire.
// It reports whether the engine still has work (pending operations,
// in-flight repairs, or queued traffic).
func (s *Simulation) Tick() bool {
	s.net.Pulse()
	s.stateGen++
	s.afterRound()
	if s.coalesceOn && len(s.pending) > 0 {
		s.tickHolds()
	}
	s.auditEngineSweep()
	s.flushObserver()
	if s.Idle() {
		// Quiescent: fold the handlers' pending physical-graph edits so
		// snapshots and verification see a settled state, exactly like
		// the blocking path's post-quiescence drain. The settled state
		// is also when the audit layer can vouch for the connectivity
		// certificate (count equality only holds between repairs), and
		// when the certificate settles the edge removals it recorded:
		// the repairs have re-linked the deleted nodes' neighbours, so
		// its searches meet almost at once.
		s.drainPhys()
		s.physCC.Settle()
		s.auditCertSweep()
		return false
	}
	return true
}

// Run ticks until the engine is idle or maxRounds have elapsed,
// returning the number of rounds advanced.
func (s *Simulation) Run(maxRounds int) int {
	rounds := 0
	for rounds < maxRounds && !s.Idle() {
		s.Tick()
		rounds++
	}
	return rounds
}

// Drain runs the engine to idleness. It fails only if the protocol
// stalls — no operation completes for longer than the quiescence
// bound — which, like the bound in the blocking path, means the
// protocol is broken, never that it is slow.
func (s *Simulation) Drain() error {
	bound := s.roundBound()
	stall := 0
	for !s.Idle() {
		before := len(s.pending) + len(s.inflight)
		s.Tick()
		if len(s.pending)+len(s.inflight) < before {
			stall = 0
		} else {
			stall++
		}
		if stall > bound {
			return fmt.Errorf("dist: drain: no repair progress after %d rounds (%d pending ops, %d repairs in flight, %d messages queued)",
				bound, len(s.pending), len(s.inflight), s.net.Pending())
		}
	}
	s.drainPhys()
	s.physCC.Settle()
	return nil
}

// Idle reports whether the engine has nothing left to do: no pending
// operations, no repairs in flight, no traffic or timers queued beyond
// the audit layer's standing ticks.
func (s *Simulation) Idle() bool {
	return len(s.pending) == 0 && len(s.inflight) == 0 && s.netQuiet()
}

// InFlight returns the number of repairs currently in progress.
func (s *Simulation) InFlight() int { return len(s.inflight) }

// PendingOps returns the number of submitted operations not yet
// admitted.
func (s *Simulation) PendingOps() int { return len(s.pending) }

// Poll returns the events accumulated since the last Poll and clears
// the buffer. Events buffer only once Submit has been called AND no
// observer is installed — the observer replaces buffering, stream-only
// consumers never grow the buffer, and purely blocking callers never
// populate it at all (Poll itself never changes the mode).
func (s *Simulation) Poll() []Event {
	evs := s.events
	s.events = nil
	return evs
}

// SetObserver streams every event to fn as it fires, replacing the
// Poll buffer as the consumption path (events emitted while an
// observer is installed are not buffered). Pass nil to return to
// Poll-based consumption.
func (s *Simulation) SetObserver(fn func(Event)) {
	s.observer = fn
}

// emit delivers one event: queued for the observer when one is
// installed (dispatched at the next safe point — never from inside an
// admission sweep or a blocking wrapper, so an observer may reenter
// Submit), else into the Poll buffer when the engine is in async use.
// Events emitted by a blocking wrapper go only to an observer — its
// caller gets the result synchronously (LastRecovery/LastBatch), so
// buffering them for a Poll that blocking-style code never makes
// would leak.
func (s *Simulation) emit(ev Event) {
	if s.observer != nil {
		s.observerQ = append(s.observerQ, ev)
		return
	}
	if s.async && !s.inBlocking {
		s.events = append(s.events, ev)
	}
}

// flushObserver dispatches queued events to the observer. Called only
// at safe points (end of Submit, end of a Tick, end of the blocking
// wrappers) and deferred entirely while a blocking wrapper runs, so
// when a callback fires the pending queue is settled and holds none of
// a blocking call's own operations: an observer may therefore call
// Submit — or even another blocking call — reentrantly. Events
// appended during a callback are drained by the same loop, preserving
// FIFO order.
func (s *Simulation) flushObserver() {
	if s.inBlocking {
		return
	}
	if s.observer == nil {
		s.observerQ = nil
		return
	}
	for len(s.observerQ) > 0 {
		ev := s.observerQ[0]
		s.observerQ = s.observerQ[1:]
		s.observer(ev)
	}
}

// afterRound processes the round's in-band repair completions and
// re-attempts admissions. Completions are drained in sorted epoch
// order, so every backend produces the same schedule.
func (s *Simulation) afterRound() {
	dones := s.done.take()
	if len(dones) == 0 {
		return
	}
	freed := make(map[NodeID]NodeID, len(dones))
	for _, d := range dones {
		fl := s.inflight[d.epoch]
		if fl == nil {
			panic(fmt.Sprintf("dist: completion for unknown epoch %d", d.epoch))
		}
		s.dropFlight(d.epoch)
		freed[d.epoch] = d.leader
		rs := s.flightStats(fl)
		s.lastFlight = rs
		s.emit(Event{
			Kind: EventRepairDone, Seq: fl.seq, V: fl.v, Repair: rs,
			Latency: s.net.Round() - fl.submitRound,
		})
	}
	s.releaseChains(freed)
	s.admit()
}

// releaseChains unblocks merged operations waiting on the freed
// epochs and records the finishing leader as the launch source of
// operations the freed repairs blocked: the handoff notifications
// travel leader-to-member, one per member of the successor's notified
// set.
func (s *Simulation) releaseChains(freed map[NodeID]NodeID) {
	for _, po := range s.pending {
		if po.merged && po.after != noNode {
			if l, ok := freed[po.after]; ok {
				po.after = noNode
				if l != noNode {
					po.from, po.haveFrom = l, true
				}
			}
			continue
		}
		if po.haveFrom {
			continue
		}
		for _, b := range po.blockers {
			if l, ok := freed[b]; ok && l != noNode {
				po.from, po.haveFrom = l, true
				break
			}
		}
	}
}

// admit sweeps the pending queue in submission order, launching every
// operation whose serialization point has arrived. Repairs that
// complete instantly (an isolated node) release their merged
// successors within the same sweep.
func (s *Simulation) admit() {
	for {
		instant := s.admitPass()
		if len(instant) == 0 {
			return
		}
		freed := make(map[NodeID]NodeID, len(instant))
		for _, v := range instant {
			freed[v] = noNode
		}
		s.releaseChains(freed)
	}
}

// admitPass is one in-order sweep. An operation is admissible when no
// earlier-submitted operation still pends on an overlapping footprint
// and no in-flight repair's region intersects its own. It returns the
// epochs of repairs that completed instantly.
//
// Both tests are per-processor lookups, not region intersections:
// in-flight regions are held in the claim table, and each operation the
// sweep keeps pending stamps its footprint in s.blocked, so a later
// operation is checked in O(|region|).
func (s *Simulation) admitPass() (instant []NodeID) {
	if len(s.pending) == 0 {
		return nil
	}
	keep := s.pending[:0]
	s.blocked.reset()
	pendingCreates := make(map[NodeID]struct{})
	// doomed tracks targets of earlier-queued deletes that have not
	// launched yet. Ids are never reused, so such a node is dead at
	// every later operation's serialization point even though it is
	// still alive right now; validation must treat it as dead or the
	// verdict (and the neighbor named in the error) would depend on
	// how far the earlier repair happened to have progressed — a
	// transport-pacing artifact, not serialized state.
	doomed := make(map[NodeID]struct{})
	block := func(po *pendingOp) {
		keep = append(keep, po)
		for _, x := range po.region {
			s.blocked.add(x)
		}
		if po.op.Kind == OpInsert {
			pendingCreates[po.op.V] = struct{}{}
		}
		if po.op.Kind == OpDelete {
			doomed[po.op.V] = struct{}{}
		}
	}
	reject := func(po *pendingOp, err error) {
		s.emit(Event{
			Kind: EventOpRejected, Seq: po.seq, V: po.op.V, Op: po.op, Err: err,
			Latency: s.net.Round() - po.submitRound,
		})
	}
	for _, po := range s.pending {
		if po.merged && po.after != noNode {
			// Coalesced merge waiting on its predecessor epoch. Refresh
			// its footprint (in-flight repairs may have moved the trees)
			// so later ops in this sweep serialize against it
			// exactly as they would against an unheld pending delete.
			if s.Alive(po.op.V) {
				s.refreshRegion(po)
			}
			block(po)
			continue
		}
		switch po.op.Kind {
		case OpDelete:
			v := po.op.V
			if !s.Alive(v) {
				if _, willExist := pendingCreates[v]; willExist {
					block(po)
					continue
				}
				reject(po, fmt.Errorf("dist: delete %d: not a live node", v))
				continue
			}
			s.refreshRegion(po)
			if blockers, blocked := s.regionBlocked(po.region); blocked {
				// Still blocked: any handoff attribution from a previous
				// release is stale — the launch belongs to whichever
				// repair frees the op last.
				po.blockers = blockers
				po.from, po.haveFrom = noNode, false
				block(po)
				continue
			}
			if po.hold > 0 {
				// Coalescing window still open: admissible, but held so a
				// later submission can still cancel or merge with it.
				block(po)
				continue
			}
			if done := s.launchDelete(po); done {
				instant = append(instant, v)
			}
		case OpInsert:
			v, nbrs := po.op.V, po.op.Nbrs
			if _, willExist := pendingCreates[v]; willExist {
				block(po)
				continue
			}
			if s.gprime.HasNode(v) {
				reject(po, fmt.Errorf("dist: insert %d: id already used (ids are never reused)", v))
				continue
			}
			wait, err := false, error(nil)
			for _, x := range nbrs {
				if _, dying := doomed[x]; dying {
					err = fmt.Errorf("dist: insert %d: neighbor %d is not a live node", v, x)
					break
				}
				if s.Alive(x) {
					continue
				}
				if _, willExist := pendingCreates[x]; willExist {
					wait = true
					continue
				}
				err = fmt.Errorf("dist: insert %d: neighbor %d is not a live node", v, x)
				break
			}
			if err != nil {
				reject(po, err)
				continue
			}
			if po.region == nil {
				// State-independent: the node and its distinct neighbors
				// (Submit rejects self edges and duplicates).
				po.region = append([]NodeID{v}, nbrs...)
			}
			if blockers, blocked := s.regionBlocked(po.region); wait || blocked {
				po.blockers = blockers
				block(po)
				continue
			}
			if po.hold > 0 {
				block(po)
				continue
			}
			if err := s.insertNow(v, nbrs); err != nil {
				reject(po, err)
				continue
			}
			if s.coalesceOn && po.seq != 0 {
				s.coalStats.Admitted++
			}
			s.emit(Event{
				Kind: EventInsertApplied, Seq: po.seq, V: v,
				Latency: s.net.Round() - po.submitRound,
			})
		}
	}
	s.pending = keep
	return instant
}

// regionBlocked reports whether a footprint holds a processor some
// in-flight repair claims (returning the claiming epochs, sorted, for
// handoff attribution) or one an earlier operation of this sweep kept
// pending on. The claim table is read on every call: admitPass
// launches repairs mid-sweep, and later operations in the same sweep
// must see those new flights.
func (s *Simulation) regionBlocked(region []NodeID) ([]NodeID, bool) {
	var blockers []NodeID
	for _, x := range region {
		if e, claimed := s.claims[x]; claimed && !slices.Contains(blockers, e) {
			blockers = append(blockers, e)
		}
	}
	if len(blockers) > 0 {
		slices.Sort(blockers)
		return blockers, true
	}
	for _, x := range region {
		if s.blocked.has(x) {
			return nil, true
		}
	}
	return nil, false
}

// refreshRegion recomputes a pending deletion's footprint unless it was
// computed at the current state generation. deleteRegion reads only
// processor state, which changes only where stateGen is bumped (a
// transport pulse, a launch, an insert, an injected fault), so a region
// of the current generation is exactly what a recomputation would
// return.
func (s *Simulation) refreshRegion(po *pendingOp) {
	if po.region == nil || po.regionGen != s.stateGen {
		po.region, po.regionGen = s.deleteRegion(po.op.V), s.stateGen
	}
}

// overlap reports whether two footprints share a processor.
func (s *Simulation) overlap(a, b []NodeID) bool {
	s.scratch.reset()
	for _, x := range a {
		s.scratch.add(x)
	}
	for _, x := range b {
		if s.scratch.has(x) {
			return true
		}
	}
	return false
}

// addFlight registers an in-flight repair under its epoch and claims
// every processor of its region. Admission launches only footprints
// no flight claims, so finding a processor already claimed is an
// admission bug.
func (s *Simulation) addFlight(epoch NodeID, fl *flight) {
	for _, x := range fl.region {
		if other, taken := s.claims[x]; taken {
			panic(fmt.Sprintf("dist: epoch %d launched on processor %d, which in-flight epoch %d claims", epoch, x, other))
		}
		s.claims[x] = epoch
	}
	s.inflight[epoch] = fl
}

// dropFlight retires an in-flight repair and releases its claims.
func (s *Simulation) dropFlight(epoch NodeID) {
	for _, x := range s.inflight[epoch].region {
		delete(s.claims, x)
	}
	delete(s.inflight, epoch)
}

// stamps is a reusable processor set: a node is a member when its
// stamp equals the current generation, so reset empties the set in
// O(1) and membership costs one map lookup.
type stamps struct {
	at  map[NodeID]uint64
	gen uint64
}

// stampCap bounds a stamp map. Node IDs are never reused, so under
// churn stale stamps pile up; reset drops them once the map holds
// stampCap nodes, a clear amortized over at least that many additions.
const stampCap = 1 << 16

// reset starts a new, empty set.
func (st *stamps) reset() {
	st.gen++
	if len(st.at) > stampCap {
		clear(st.at)
	}
}

// add inserts x, reporting whether it was new.
func (st *stamps) add(x NodeID) bool {
	if st.at[x] == st.gen {
		return false
	}
	st.at[x] = st.gen
	return true
}

func (st *stamps) has(x NodeID) bool { return st.at[x] == st.gen }

// launchDelete removes the processor and starts its repair, reporting
// true when the repair completed on the spot (a node isolated in the
// virtual graph has nothing to repair).
func (s *Simulation) launchDelete(po *pendingOp) (instantlyDone bool) {
	v := po.op.V
	degree := s.gprime.Degree(v)
	if s.coalesceOn && po.seq != 0 {
		s.coalStats.Admitted++
	}
	// Fold the handlers' pending physical-edit logs in first:
	// removeProcessor updates the maintained physical graph directly
	// and needs the multiplicity index current.
	s.drainPhys()
	rep := s.prepareRepair(v)
	s.stateGen++
	if rep == nil {
		rs := RecoveryStats{Deleted: v, DegreePrime: degree}
		s.lastFlight = rs
		s.emit(Event{
			Kind: EventRepairDone, Seq: po.seq, V: v, Repair: rs,
			Latency: s.net.Round() - po.submitRound,
		})
		return true
	}
	s.addFlight(v, &flight{
		v: v, seq: po.seq, degree: degree, notify: len(rep.notify),
		region: po.region, statsAt: s.net.Stats(), submitRound: po.submitRound,
	})
	// Hand off from the releasing leader if it is still alive (a later
	// deletion may have removed it since); otherwise the members detect
	// the deletion themselves, as in a fresh launch.
	s.sendDeathNotifications(rep, po.from, po.haveFrom && s.Alive(po.from), po.merged)
	return false
}

// beginBlocking marks a blocking wrapper in progress: observer
// dispatch is deferred to the wrapper's end, so callbacks — which may
// reenter Submit — never run while the wrapper's own operations are
// pending or in flight, and its stats window covers its own traffic
// alone. The returned func restores the previous state and flushes;
// wrappers defer it.
func (s *Simulation) beginBlocking() func() {
	prev := s.inBlocking
	s.inBlocking = true
	return func() {
		s.inBlocking = prev
		s.flushObserver()
	}
}

// sendDeathNotifications lays BT_v over the notified set and delivers
// the death notifications. Each neighbor normally detects the deletion
// itself (the model's detection assumption — a self-addressed message
// charged to the live detector); a repair launched by a finishing
// leader's handoff is instead notified BY that leader, one message per
// member, which is the leader-to-leader wave handoff that replaced the
// driver barrier. The notification carries the receiver's slot in
// BT_v — a heap-shaped complete binary tree over the notified set in
// DESCENDING ID order, so the eventual winner (the smallest ID)
// genuinely has to win log d knockout matches on its way up.
//
// A coalesced merge launch (led) pre-appoints the leader instead: the
// tournament's winner is always the smallest notified ID, which the
// driver already knows, so the notification carries it (one extra
// word) and the participants skip the election — 2(k-1) messages
// saved, counted in CoalesceStats.
func (s *Simulation) sendDeathNotifications(r *pendingRepair, from NodeID, handoff, led bool) {
	leader, words := noNode, wordsDeath
	if led {
		leader, words = r.notify[0], wordsDeathLed
		s.coalStats.MessagesSaved += 2 * (len(r.notify) - 1)
	}
	s.layBT(r.notify, func(x, parent, left, right NodeID) {
		src := x
		if handoff {
			src = from
		}
		s.net.Send(src, x, msgDeath{
			V: r.v, BTParent: parent, BTLeft: left, BTRight: right, Leader: leader,
		}, words)
	})
}

// layBT lays the will convention's coordination tree over a notified
// set: a heap-shaped complete binary tree in DESCENDING ID order (the
// root holds the largest ID, so the knockout winner — the smallest —
// genuinely plays log k matches on its way up), calling place once per
// member with its tree links (noNode where absent). Driver-side only
// (the launch path), so one reusable scratch suffices.
func (s *Simulation) layBT(notify []NodeID, place func(x, parent, left, right NodeID)) {
	k := len(notify)
	if cap(s.btOrder) < k {
		s.btOrder = make([]NodeID, k)
	}
	order := s.btOrder[:k]
	for i, x := range notify {
		order[k-1-i] = x
	}
	at := func(i int) NodeID {
		if i < k {
			return order[i]
		}
		return noNode
	}
	for i, x := range order {
		parent := noNode
		if i > 0 {
			parent = order[(i-1)/2]
		}
		place(x, parent, at(2*i+1), at(2*i+2))
	}
}

// flightStats assembles one completed repair's RecoveryStats from the
// stats deltas since its launch. Additive fields subtract cleanly;
// the Max* fields are high-water marks since the last reset and are
// reported as such (exact whenever the repair ran alone, which is
// every blocking call).
func (s *Simulation) flightStats(fl *flight) RecoveryStats {
	cur := s.net.Stats()
	at := fl.statsAt
	return RecoveryStats{
		Deleted:          fl.v,
		DegreePrime:      fl.degree,
		NsetSize:         fl.notify,
		Messages:         cur.Messages - at.Messages,
		Rounds:           cur.Rounds - at.Rounds,
		TotalWords:       cur.TotalWords - at.TotalWords,
		MaxWords:         cur.MaxWords,
		MaxSentByNode:    cur.MaxSentByNode,
		QueuedWords:      cur.QueuedWords - at.QueuedWords,
		MaxEdgeBacklog:   cur.MaxEdgeBacklog,
		CongestionRounds: cur.CongestionRounds - at.CongestionRounds,
		ElectionRounds:   cur.ElectionRounds - at.ElectionRounds,
		SyncRounds:       cur.SyncRounds - at.SyncRounds,
		ElectionMessages: cur.ElectionMessages - at.ElectionMessages,
		SyncMessages:     cur.SyncMessages - at.SyncMessages,
	}
}

// deleteRegion computes the footprint of deleting v: v itself, its
// physical neighborhood (the notified set plus the live G′ neighbors
// that grow fresh leaves), and every owner of a record in any
// Reconstruction Tree containing one of v's records. The repair's
// walks ascend within those trees, the strip descends within them, and
// the merge rewires their primary roots onto helpers at representative
// slots drawn from them — so the repair never touches a processor
// outside this set, which is what makes region disjointness a sound
// admission criterion. Cost is O(size of the affected trees), the same
// order as the repair itself.
// The walk is defensive about dangling links: computed while other
// repairs are in flight, an ascent or descent can wander into a tree
// mid-mutation (a retired helper's children still pointing at it, a
// parent link into a just-removed processor) and simply stops there.
// Soundness is unaffected — reaching dangling state means the tree is
// mid-repair by some flight F, so the record reached sits in F's RT
// and its owner is in region(F); that owner IS collected before the
// stop, so the overlap check still blocks v behind F.
// The region lists each processor once, in no particular order.
func (s *Simulation) deleteRegion(v NodeID) []NodeID {
	region := s.affectedBy(v) // its members stay stamped in s.scratch
	add := func(x NodeID) {
		if s.scratch.add(x) {
			region = append(region, x)
		}
	}
	add(v)
	p := s.procs[v]
	seenRoots := make(map[addr]struct{})
	var down func(a addr)
	down = func(a addr) {
		if !a.ok() {
			return
		}
		add(a.Owner)
		if a.Kind != kindHelper {
			return
		}
		_, h, ok := s.lookupRecord(a)
		if !ok || h == nil {
			return
		}
		down(h.left)
		down(h.right)
	}
	visit := func(a addr) {
		for {
			parent, _, ok := s.lookupRecord(a)
			if !ok || !parent.ok() {
				break
			}
			if _, _, upOK := s.lookupRecord(parent); !upOK {
				add(parent.Owner)
				break
			}
			a = parent
		}
		if _, dup := seenRoots[a]; dup {
			return
		}
		seenRoots[a] = struct{}{}
		down(a)
	}
	for o := range p.leaves {
		visit(leafAddr(v, o))
	}
	for o := range p.helpers {
		visit(helperAddr(v, o))
	}
	return region
}

// lookupRecord reads one record driver-side: its parent link, the
// helper record when a names a helper, and whether the record exists
// at all (it may not, mid-repair). It is the one record accessor of
// region computation and of the record checker (verify_delta.go).
func (s *Simulation) lookupRecord(a addr) (parent addr, h *helperRec, ok bool) {
	p, alive := s.procs[a.Owner]
	if !alive {
		return addr{}, nil, false
	}
	if a.Kind == kindLeaf {
		l, exists := p.leaves[a.Other]
		if !exists {
			return addr{}, nil, false
		}
		return l.parent, nil, true
	}
	rec, exists := p.helpers[a.Other]
	if !exists {
		return addr{}, nil, false
	}
	return rec.parent, rec, true
}

// requireIdle guards the blocking calls: they assume exclusive use of
// the network, so mixing them with undrained asynchronous work is a
// caller error.
func (s *Simulation) requireIdle(what string) error {
	if !s.Idle() {
		return fmt.Errorf("dist: %s: engine busy (%d pending ops, %d repairs in flight); blocking calls require an idle engine — Drain first",
			what, len(s.pending), len(s.inflight))
	}
	return nil
}
