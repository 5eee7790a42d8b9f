package dist

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/audit"
	"repro/internal/transport"
)

// leafRec is a processor's record for one of its leaf avatars L(v,x):
// the edge to a deleted neighbor plus the avatar's position in its
// Reconstruction Tree. O(1) words of state per half-dead edge.
type leafRec struct {
	parent addr
}

// helperRec is a processor's record for a helper H(v,x) it simulates:
// tree links by address, the stored shape fields (Height/LeafCount as
// in package haft — truthful while the subtree is intact), and the
// representative leaf this helper would pass on when merged. The
// damaged flag is transient repair state (the paper's Breakflag),
// tagged with the epoch of the repair that set it: two concurrent
// repairs marking the same helper would mean region admission failed,
// which the handlers treat as a protocol bug.
type helperRec struct {
	parent      addr
	left, right addr
	height      int
	leafCount   int
	rep         slot
	damaged     bool
	depoch      NodeID // the epoch that set damaged
}

// physEdit is one pending update to the simulation's incrementally
// maintained physical graph: the tree-edge image (owner, peer) appeared
// or disappeared because this processor's record changed a parent link.
// Handlers append to their own processor's log — never to shared state,
// which is what keeps the parallel delivery mode race-free — and the
// simulation drains the logs after each quiescent run.
type physEdit struct {
	add  bool
	a, b NodeID
}

// processor is one node of the distributed simulation. Its handler may
// touch only its own fields (plus the messages it sends), which is what
// makes the goroutine-per-processor parallel delivery mode safe.
type processor struct {
	id   NodeID
	nbrs map[NodeID]struct{} // G′ neighbors, live or dead

	leaves  map[NodeID]*leafRec   // keyed by the slot's Other endpoint
	helpers map[NodeID]*helperRec // keyed by the slot's Other endpoint

	// reps is the leader-side scratch, one per repair this processor is
	// currently coordinating, keyed by epoch. Concurrent repairs may
	// elect the same leader; the epoch tag on every message keeps their
	// scratches separate.
	reps map[NodeID]*repairState

	// parts is the participant-side transient state, one per repair
	// this processor was notified of, keyed by epoch: its BT_v slot,
	// the election tournament's running champion, and the
	// notification-phase termination counters. Deleted as soon as the
	// participant proves its subtree done.
	parts map[NodeID]*partState

	// Free-lists for the per-epoch scratch above. A churning network
	// retires one partState per notified neighbor and one repairState
	// per repair every deletion; recycling them (reset at reuse, so a
	// frame that just retired its scratch may still read it) keeps the
	// steady-state tick path off the allocator.
	partFree []*partState
	repFree  []*repairState

	// stripWait tracks retired helpers whose strip cascades are still
	// resolving below them: the record itself is gone, but the
	// completion convergecast needs to know where to forward the last
	// child's ack. Keyed by the retired node's address (safe: a slot
	// freed by the strip is only reused by the same epoch's merge,
	// strictly after the cascade resolves).
	stripWait map[addr]*stripWaiter

	// wdRearmed / wdStale count phase-watchdog firings that found the
	// phase still open (re-armed) or already advanced (ignored) —
	// observability for the termination-detection tests.
	wdRearmed, wdStale int

	// done is where the leader registers a repair's in-band completion
	// (the last merge-instruction ack arrived); the open-loop engine
	// drains it after every round to emit RepairDone events and hand
	// serialized regions off leader-to-leader.
	done *doneList

	// physLog accumulates this processor's pending physical-graph edits
	// (see physEdit); dirty is where the processor registers itself on
	// its first pending edit so the simulation drains only loggers.
	physLog []physEdit
	dirty   *dirtyList

	// touched marks that some record of this processor changed since
	// the last verification; touchers is where it registers on the
	// first change so incremental verification revisits exactly the
	// processors repairs touched (see VerifyDelta).
	touched  bool
	touchers *dirtyList

	// Send pacing under finite bandwidth (see sendPaced). spread is
	// whether this processor paces its bursts at all; the budget is the
	// network's effective per-edge cap for each destination (per-edge
	// overrides included), looked up per send. outbox holds the sends
	// awaiting an open slot with outQueued counting them per
	// destination (per-destination FIFO in O(1) per send),
	// flushScheduled whether a flush timer is already pending, and
	// outRound/outUsed track the words already sent per destination in
	// the current round.
	spread         bool
	outbox         []outMsg
	outQueued      map[NodeID]int
	flushScheduled bool
	outRound       int
	outUsed        map[NodeID]int
	outBlocked     map[NodeID]bool // flush scratch, cleared per flush

	// Self-stabilizing audit layer (see audit.go). Zero value = off.
	// aProtoSeen counts every non-audit message this processor handled;
	// it is the activity witness the confirm-twice rules compare — two
	// matching observations with aProtoSeen unchanged between them mean
	// no repair machinery touched this processor in the interval, so
	// the disagreement is corruption, not a repair in flight. aCursor is
	// the round-robin position of the structural pass; aStaleFP /
	// aStaleMark / aStaleRuns drive the stale-transient-state detector;
	// aWait stashes in-flight probe conversations per audited helper;
	// aSuspect counts consecutive dangling-probe verdicts per child
	// side; aAdopt / aClaimBad hold the one-prior-observation entries of
	// the adopt-zero and clear-parent confirm rules.
	auditOn    bool
	auditCfg   audit.Config
	aStats     audit.Stats
	aProtoSeen int
	aCursor    int
	aStaleFP   uint64
	aStaleMark int
	aStaleRuns int
	aWait      map[addr]*auditAgg
	aSuspect   map[auditSideKey]*auditConfirm
	aAdopt     map[addr]*auditConfirm
	aClaimBad  map[addr]*auditConfirm
}

// partState is one participant's transient view of one repair it was
// notified of: its BT_v links, the knockout tournament's progress, and
// the termination-detection counters for the notification phase.
type partState struct {
	v                         NodeID // the deleted processor (= epoch)
	btParent, btLeft, btRight NodeID // noNode where absent

	// haveDeath records that the notification itself arrived. Under a
	// finite bandwidth a congested self-edge can delay it past a BT_v
	// child's champion (the child's own notification went through), so
	// early champions are folded into champ/height and counted in
	// earlyChamps until the notification catches up.
	haveDeath   bool
	earlyChamps int

	// Election: champ is the smallest ID seen (self plus reported
	// subtrees), waitChamps how many BT_v children have yet to report,
	// height the learned BT_v subtree height, leader the winner once
	// the announcement arrives (noNode until then).
	champ      NodeID
	waitChamps int
	height     int
	leader     NodeID

	// Termination detection: walksOut counts seeded damage walks not
	// yet acked, waitDone the BT_v children that have yet to report
	// their subtrees done, processed whether this participant ran its
	// own death-processing, annSent the leader-bound announcements this
	// subtree produced (own plus walk-terminator ones, folded in from
	// acks and children's dones) for the message-counting proof.
	walksOut  int
	waitDone  int
	processed bool
	annSent   int
}

// stripWaiter holds the completion state of a retired helper whose
// strip cascade is still resolving: how many child subtrees remain,
// the descriptors they reported so far, and where the resolution goes
// when the last one acks.
type stripWaiter struct {
	epoch   NodeID
	waiting int
	descs   int
	ackTo   addr // zero addr: fragment root, completion goes to leader
	leader  NodeID
}

// outMsg is one send waiting in a pacing processor's outbox.
type outMsg struct {
	to      NodeID
	payload any
	words   int
	class   transport.Class
}

// doneList collects (epoch, leader) pairs for repairs whose completion
// the leader just proved in-band. Like dirtyList, the mutex serializes
// registrations from concurrent handler goroutines in parallel
// delivery mode; the engine drains and sorts it after every round, so
// both delivery modes process completions in the same order.
type doneList struct {
	mu      sync.Mutex
	entries []doneEntry
}

type doneEntry struct {
	epoch, leader NodeID
}

func (d *doneList) add(epoch, leader NodeID) {
	d.mu.Lock()
	d.entries = append(d.entries, doneEntry{epoch: epoch, leader: leader})
	d.mu.Unlock()
}

func (d *doneList) take() []doneEntry {
	d.mu.Lock()
	entries := d.entries
	d.entries = nil
	d.mu.Unlock()
	// sort.Slice costs an allocation even on an empty slice, and the
	// engine drains this list every tick — almost always empty.
	if len(entries) > 1 {
		sort.Slice(entries, func(i, j int) bool { return entries[i].epoch < entries[j].epoch })
	}
	return entries
}

// Leader-side phase progression of one repair. The leader proves each
// phase complete in-band — the BT_v phase-done report for the
// notification phase, counted probe replies for the key phase, the
// strip convergecast for the strip phase, and counted instruction acks
// for the merge phase, whose last ack retires the repair entirely and
// registers it on the engine's done list.
const (
	phaseNotify = iota
	phaseKeys
	phaseStrip
	phaseMerge
)

// repairState is what the leader of a repair accumulates: announced
// fragment roots, per-component ordering keys, and primary-root
// descriptors, all re-sorted canonically before the merge so that
// arrival order never matters — plus the in-band phase machine that
// replaced the caller's quiescence barriers.
type repairState struct {
	roots map[addr]struct{}
	comps map[addr]*component

	// phase is the current leader-side phase; outstanding counts the
	// completion proofs the phase still waits for (key replies or
	// fragment strip-dones); maxRootHeight is the deepest announced
	// fragment's stored height, bounding the watchdog timers.
	phase         int
	outstanding   int
	maxRootHeight int

	// Message-counting termination detection. The notification phase:
	// annRecvd counts announcements (root announces + fresh leaves)
	// received, annExpected the total the BT_v convergecast reported,
	// haveNotifyDone whether that report arrived — keys start when the
	// report is in AND the counts match. The strip phase: descRecvd /
	// descExpected play the same game for descriptors vs the fragment
	// strip-done reports.
	annRecvd       int
	annExpected    int
	haveNotifyDone bool
	descRecvd      int
	descExpected   int

	// Scratch retained across pool recycling so the per-repair leader
	// work costs no steady-state allocations: rootScratch backs
	// sortedRoots, compScratch/descScratch back orderedDescriptors, and
	// compFree holds retired component objects for comp() to reuse.
	rootScratch []addr
	compScratch []*component
	descScratch []msgDescriptor
	compFree    []*component
}

// component mirrors one entry of core's components list: a fragment
// root (or a fresh leaf) plus its ordering key and stripped trees.
type component struct {
	root   addr
	key    slot
	hasKey bool
	descs  []msgDescriptor
}

func newProcessor(id NodeID) *processor {
	return &processor{
		id:      id,
		nbrs:    make(map[NodeID]struct{}),
		leaves:  make(map[NodeID]*leafRec),
		helpers: make(map[NodeID]*helperRec),
	}
}

// handle dispatches one delivered message. It is the transport.Handler of
// this processor.
func (p *processor) handle(n transport.Endpoint, m transport.Message) {
	// Count protocol activity for the audit layer's confirm rules.
	// Audit traffic itself is excluded: probes must not mask the quiet
	// intervals they are probing for.
	switch m.Payload.(type) {
	case msgAuditTick, msgAuditProbe, msgAuditReply, msgAuditClaim, msgAuditVerdict:
	default:
		p.aProtoSeen++
	}
	switch msg := m.Payload.(type) {
	case msgDeath:
		p.onDeath(n, msg)
	case msgChampion:
		p.onChampion(n, msg)
	case msgLeader:
		p.onLeader(n, msg)
	case msgBeginRepair:
		p.beginRepair(n, msg.Epoch, msg.Leader)
	case msgWalkAck:
		ps := p.mustPart(msg.Epoch)
		ps.walksOut--
		ps.annSent += msg.Announced
		p.maybeNotifyDone(n, msg.Epoch, ps)
	case msgSubtreeDone:
		ps := p.mustPart(msg.Epoch)
		ps.waitDone--
		ps.annSent += msg.Announced
		p.maybeNotifyDone(n, msg.Epoch, ps)
	case msgPhaseDone:
		// The BT_v root proved the notification phase globally done and
		// reported how many announcements are owed; the key phase
		// starts once they have all arrived.
		rs := p.repair(msg.Epoch)
		rs.haveNotifyDone = true
		rs.annExpected = msg.Announced
		p.maybeStartKeys(n, msg.Epoch, rs)
	case msgMarkDamaged:
		p.onMarkDamaged(n, msg)
	case msgRootAnnounce:
		rs := p.repair(msg.Epoch)
		rs.addRoot(msg.Root, msg.Height)
		rs.annRecvd++
		p.maybeStartKeys(n, msg.Epoch, rs)
	case msgFreshLeaf:
		rs := p.repair(msg.Epoch)
		rs.addFreshLeaf(msg.Leaf)
		rs.annRecvd++
		p.maybeStartKeys(n, msg.Epoch, rs)
	case msgKeyFound:
		p.repair(msg.Epoch).setKey(msg.Comp, msg.Key)
		p.keyReplied(n, msg.Epoch)
	case msgKeyNone:
		// The prefer-left descent dead-ended: the component stays
		// keyless and sorts after every keyed one, as in core. The
		// reply still counts toward the phase's completion.
		p.keyReplied(n, msg.Epoch)
	case msgDescriptor:
		rs := p.repair(msg.Epoch)
		rs.addDescriptor(msg)
		rs.descRecvd++
		p.maybeStartMerge(n, msg.Epoch, rs)
	case msgStripAck:
		p.onStripAck(n, msg)
	case msgStripDone:
		p.onStripDone(n, msg)
	case msgPhaseWatch:
		p.onPhaseWatch(n, msg)
	case msgKeyProbe:
		p.onKeyProbe(n, msg)
	case msgStripVisit:
		p.onStripVisit(n, msg)
	case msgCreateHelper:
		p.onCreateHelper(n, m.From, msg)
	case msgSetParent:
		p.onSetParent(n, m.From, msg)
	case msgMergeAck:
		p.onMergeAck(n, msg)
	case msgFlushOutbox:
		p.onFlushOutbox(n)
	case msgAuditTick:
		p.onAuditTick(n)
	case msgAuditProbe:
		p.onAuditProbe(n, msg)
	case msgAuditReply:
		p.onAuditReply(n, msg)
	case msgAuditClaim:
		p.onAuditClaim(n, msg)
	case msgAuditVerdict:
		p.onAuditVerdict(n, msg)
	default:
		panic(fmt.Sprintf("dist: processor %d: unknown message %T", p.id, m.Payload))
	}
}

func (p *processor) mustPart(epoch NodeID) *partState {
	ps, ok := p.parts[epoch]
	if !ok {
		panic(fmt.Sprintf("dist: processor %d: no participant state for epoch %d", p.id, epoch))
	}
	return ps
}

// repair returns the leader scratch for one epoch, allocating on first
// use (the leader's own Death processing runs in the same round, before
// any announcement can arrive).
func (p *processor) repair(epoch NodeID) *repairState {
	if p.reps == nil {
		p.reps = make(map[NodeID]*repairState)
	}
	r, ok := p.reps[epoch]
	if !ok {
		if n := len(p.repFree); n > 0 {
			r = p.repFree[n-1]
			p.repFree = p.repFree[:n-1]
			r.reset()
		} else {
			r = &repairState{
				roots: make(map[addr]struct{}),
				comps: make(map[addr]*component),
			}
		}
		p.reps[epoch] = r
	}
	return r
}

// reset readies a recycled repairState for a new epoch, keeping its
// map storage and retiring its components to the freelist (their descs
// capacity survives with them).
func (r *repairState) reset() {
	for _, c := range r.comps {
		c.descs = c.descs[:0]
		c.key, c.hasKey = slot{}, false
		r.compFree = append(r.compFree, c)
	}
	clear(r.roots)
	clear(r.comps)
	r.phase, r.outstanding, r.maxRootHeight = 0, 0, 0
	r.annRecvd, r.annExpected, r.haveNotifyDone = 0, 0, false
	r.descRecvd, r.descExpected = 0, 0
}

func (r *repairState) addRoot(a addr, height int) {
	r.roots[a] = struct{}{}
	if height > r.maxRootHeight {
		r.maxRootHeight = height
	}
}

func (r *repairState) comp(root addr) *component {
	c, ok := r.comps[root]
	if !ok {
		if n := len(r.compFree); n > 0 {
			c = r.compFree[n-1]
			r.compFree = r.compFree[:n-1]
			c.root = root
		} else {
			c = &component{root: root}
		}
		r.comps[root] = c
	}
	return c
}

func (r *repairState) addFreshLeaf(leaf addr) {
	c := r.comp(leaf)
	c.key, c.hasKey = leaf.slot(), true
	c.descs = append(c.descs, msgDescriptor{
		Comp: leaf, Node: leaf, LeafCount: 1, Height: 0, Rep: leaf.slot(),
	})
}

func (r *repairState) setKey(root addr, key slot) {
	c := r.comp(root)
	c.key, c.hasKey = key, true
}

func (r *repairState) addDescriptor(d msgDescriptor) {
	c := r.comp(d.Comp)
	c.descs = append(c.descs, d)
}

// sendPaced sends a protocol message, holding it in a local outbox
// when the network's bandwidth budget for the edge to this destination
// is already spent this round. The repair leader's bursts — key
// probes, strip visits, and above all the merge plan's instruction
// fan-out — route through here: instead of dumping O(d) messages into
// the network in one round (and letting them pile up as edge backlog),
// the leader trickles at most the edge budget per destination per
// round and wakes itself with a zero-word timer to continue. The
// budget is the *effective* per-edge cap (per-edge overrides
// included), so one slow link is trickled at its own rate instead of
// the global one — the other destinations' sends are not held back,
// and the slow edge collects no avoidable backlog. Per-destination
// FIFO order is preserved, so paced delivery reorders nothing the
// network's own spill-over would not. With unlimited bandwidth on the
// edge (or pacing off) this is exactly Send.
func (p *processor) sendPaced(n transport.Endpoint, to NodeID, payload any, words int) {
	p.sendPacedClass(n, to, payload, words, transport.ClassData)
}

// sendPacedClass is sendPaced with an explicit accounting class (the
// merge-instruction acks are ClassSync and go out paced too, so a
// pacing processor's acks share the per-destination budget with its
// queued instructions instead of colliding with them on the edge).
func (p *processor) sendPacedClass(n transport.Endpoint, to NodeID, payload any, words int, class transport.Class) {
	budget := 0
	if p.spread {
		budget = n.EdgeBudget(p.id, to)
	}
	if budget <= 0 {
		n.SendClass(p.id, to, payload, words, class)
		return
	}
	p.rollOutRound(n)
	if used := p.outUsed[to]; p.outQueued[to] == 0 && (used == 0 || used+words <= budget) {
		p.outUsed[to] = used + words
		n.SendClass(p.id, to, payload, words, class)
		return
	}
	if p.outQueued == nil {
		p.outQueued = make(map[NodeID]int)
	}
	p.outQueued[to]++
	p.outbox = append(p.outbox, outMsg{to: to, payload: payload, words: words, class: class})
	if !p.flushScheduled {
		p.flushScheduled = true
		n.SendTimer(p.id, msgFlushOutbox{}, 1)
	}
}

// onFlushOutbox drains the outbox: oldest first, at most each edge's
// own budget per destination per round (but always at least one
// message per destination, matching the network's own progress rule),
// rescheduling itself while messages remain.
func (p *processor) onFlushOutbox(n transport.Endpoint) {
	p.flushScheduled = false
	p.rollOutRound(n)
	if p.outBlocked == nil {
		p.outBlocked = make(map[NodeID]bool)
	} else {
		clear(p.outBlocked)
	}
	// Compact in place: kept messages only ever move toward the front,
	// so the outbox keeps its storage instead of reallocating per flush.
	keep := p.outbox[:0]
	for _, m := range p.outbox {
		used := p.outUsed[m.to]
		budget := n.EdgeBudget(p.id, m.to)
		if p.outBlocked[m.to] || (budget > 0 && used > 0 && used+m.words > budget) {
			p.outBlocked[m.to] = true // preserve per-destination FIFO
			keep = append(keep, m)
			continue
		}
		p.outUsed[m.to] = used + m.words
		p.outQueued[m.to]--
		n.SendClass(p.id, m.to, m.payload, m.words, m.class)
	}
	// Drop payload references in the now-unused tail so sent messages
	// do not pin their payloads until the next burst overwrites them.
	for i := len(keep); i < len(p.outbox); i++ {
		p.outbox[i] = outMsg{}
	}
	p.outbox = keep
	if len(keep) > 0 {
		p.flushScheduled = true
		n.SendTimer(p.id, msgFlushOutbox{}, 1)
	}
}

// rollOutRound resets the per-destination words-sent accounting when a
// new round begins. The map is cleared, not reallocated: a pacing
// processor rolls it every round it sends.
func (p *processor) rollOutRound(n transport.Endpoint) {
	if p.outRound != n.Round() || p.outUsed == nil {
		p.outRound = n.Round()
		if p.outUsed == nil {
			p.outUsed = make(map[NodeID]int)
		} else {
			clear(p.outUsed)
		}
	}
}

// markTouched registers this processor for the next incremental
// verification pass; handlers call it whenever a record is created,
// deleted, or relinked. Registration goes through the same mutex-
// guarded list mechanism as the physical-edit log, so the parallel
// delivery mode stays race-free.
func (p *processor) markTouched() {
	if p.touched {
		return
	}
	p.touched = true
	p.touchers.add(p)
}

// logPhys appends a pending physical-graph edit for the tree-edge image
// (p.id, peer). Self-images (a processor adjacent to a node it
// simulates itself) collapse in the homomorphism and are not logged.
func (p *processor) logPhys(add bool, peer NodeID) {
	if peer == p.id {
		return
	}
	if len(p.physLog) == 0 {
		p.dirty.add(p)
	}
	p.physLog = append(p.physLog, physEdit{add: add, a: p.id, b: peer})
}

// clearParent empties a record's parent field, logging the lost
// physical edge image if one was set.
func (p *processor) clearLeafParent(l *leafRec) {
	if l.parent.ok() {
		p.logPhys(false, l.parent.Owner)
		l.parent = addr{}
	}
}

func (p *processor) clearHelperParent(h *helperRec) {
	if h.parent.ok() {
		p.logPhys(false, h.parent.Owner)
		h.parent = addr{}
	}
}

// sortedRecordKeys returns a record map's keys ascending. Handlers
// that emit one message per record must walk their records in this
// canonical order: several of those messages often share a destination
// (and so an edge), and under a finite bandwidth the send order
// decides which of them spills into the next round — map iteration
// order would make rounds and congestion stats vary run to run.
func sortedRecordKeys[T any](m map[NodeID]T) []NodeID {
	keys := make([]NodeID, 0, len(m))
	for o := range m {
		keys = append(keys, o)
	}
	if len(keys) > 1 {
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	}
	return keys
}

// onDeath runs at every physical neighbor of the deleted processor v
// — a participant of the repair. Nothing is repaired yet: the
// participant records its BT_v slot and enters the leader-election
// tournament. A leaf of BT_v reports its champion (its own ID)
// immediately; internal nodes wait for their children. The sole
// participant of a trivial BT_v (k = 1) is its own leader and begins
// at once.
func (p *processor) onDeath(n transport.Endpoint, m msgDeath) {
	ps := p.partFor(m.V)
	if ps.haveDeath {
		panic(fmt.Sprintf("dist: processor %d notified twice of deletion %d", p.id, m.V))
	}
	ps.haveDeath = true
	ps.btParent, ps.btLeft, ps.btRight = m.BTParent, m.BTLeft, m.BTRight
	for _, c := range [2]NodeID{m.BTLeft, m.BTRight} {
		if c != noNode {
			ps.waitChamps++
			ps.waitDone++
		}
	}
	if m.Leader != noNode {
		// Pre-appointed leader (coalesced merge launch): no tournament.
		// Repair work begins on receipt; under unlimited bandwidth every
		// participant is notified in the same round, and congestion can
		// only stagger the starts the way it staggers an elected
		// launch's — which the damage walks tolerate.
		ps.leader = m.Leader
		p.beginRepair(n, m.V, m.Leader)
		return
	}
	// Champions that raced ahead of a congested notification were
	// already folded into champ/height; settle the count now.
	ps.waitChamps -= ps.earlyChamps
	if ps.waitChamps > 0 {
		return // champions from below decide when to report
	}
	p.championDecided(n, m.V, ps)
}

// partFor returns the participant state for one epoch, allocating on
// first use: normally at the death notification, but a BT_v child's
// champion can outrun a bandwidth-delayed notification and allocates
// the buffer early.
func (p *processor) partFor(epoch NodeID) *partState {
	if p.parts == nil {
		p.parts = make(map[NodeID]*partState)
	}
	ps := p.parts[epoch]
	if ps == nil {
		if n := len(p.partFree); n > 0 {
			ps = p.partFree[n-1]
			p.partFree = p.partFree[:n-1]
		} else {
			ps = &partState{}
		}
		*ps = partState{
			v: epoch, champ: p.id, leader: noNode,
			btParent: noNode, btLeft: noNode, btRight: noNode,
		}
		p.parts[epoch] = ps
	}
	return ps
}

// onChampion advances the knockout: fold the reported subtree's
// champion (and height) in; once both children have reported, pass the
// winner up — or, at the root, conclude the tournament and announce
// the leader downward.
func (p *processor) onChampion(n transport.Endpoint, m msgChampion) {
	ps := p.partFor(m.Epoch)
	if m.ID < ps.champ {
		ps.champ = m.ID
	}
	if m.Height+1 > ps.height {
		ps.height = m.Height + 1
	}
	if !ps.haveDeath {
		ps.earlyChamps++
		return
	}
	ps.waitChamps--
	if ps.waitChamps > 0 {
		return
	}
	p.championDecided(n, m.Epoch, ps)
}

// championDecided runs when every expected champion (and our own
// notification) is in: report the subtree's champion up BT_v — or, at
// the root, conclude the tournament and announce the leader downward.
// The announcement's Wait counts line every participant up to begin
// repair work in the same round (exactly so under unlimited bandwidth;
// congestion can stagger the starts, which the damage walks tolerate —
// see onMarkDamaged's dying-parent case).
func (p *processor) championDecided(n transport.Endpoint, epoch NodeID, ps *partState) {
	if ps.btParent != noNode {
		n.SendClass(p.id, ps.btParent, msgChampion{Epoch: epoch, ID: ps.champ, Height: ps.height}, wordsChampion, transport.ClassElection)
		return
	}
	if ps.height == 0 {
		// Alone in BT_v: trivially elected, begin immediately.
		ps.leader = p.id
		p.beginRepair(n, epoch, p.id)
		return
	}
	// Root: the tournament is decided. Announce down with Wait = the
	// remaining depth below each child, and hold our own repair work
	// the full tree height so everyone begins together.
	ps.leader = ps.champ
	for _, c := range [2]NodeID{ps.btLeft, ps.btRight} {
		if c != noNode {
			n.SendClass(p.id, c, msgLeader{Epoch: epoch, Leader: ps.leader, Wait: ps.height - 1}, wordsLeader, transport.ClassElection)
		}
	}
	n.SendTimer(p.id, msgBeginRepair{Epoch: epoch, Leader: ps.leader}, ps.height)
}

// onLeader learns the tournament winner, forwards the announcement
// down BT_v, and schedules its own repair work Wait rounds out so that
// every participant processes the death in the same round — the
// synchrony the damage walks rely on (every dangling link is cleared
// before any walk message can arrive).
func (p *processor) onLeader(n transport.Endpoint, m msgLeader) {
	ps := p.mustPart(m.Epoch)
	ps.leader = m.Leader
	for _, c := range [2]NodeID{ps.btLeft, ps.btRight} {
		if c != noNode {
			n.SendClass(p.id, c, msgLeader{Epoch: m.Epoch, Leader: m.Leader, Wait: m.Wait - 1}, wordsLeader, transport.ClassElection)
		}
	}
	if m.Wait == 0 {
		p.beginRepair(n, m.Epoch, m.Leader)
		return
	}
	n.SendTimer(p.id, msgBeginRepair{Epoch: m.Epoch, Leader: m.Leader}, m.Wait)
}

// beginRepair is the participant's death-processing, run in the same
// synchronized round at every participant: detach every record link
// into v's vanished avatars, seed the damage walks (a helper that lost
// a child no longer heads an intact subtree), announce fragment roots,
// and grow the fresh leaf avatar for the half-dead G′ edge (x,v) if
// there is one. Every seeded walk is counted and later acked by its
// terminator, so the participant can prove its local phase complete.
func (p *processor) beginRepair(n transport.Endpoint, v NodeID, leader NodeID) {
	ps := p.mustPart(v)
	p.markTouched()
	for _, o := range sortedRecordKeys(p.leaves) {
		l := p.leaves[o]
		if l.parent.ok() && l.parent.Owner == v {
			p.clearLeafParent(l)
			ps.annSent++
			n.Send(p.id, leader, msgRootAnnounce{Root: leafAddr(p.id, o), Epoch: v, Height: 0}, wordsRootAnnounce)
		}
	}
	for _, o := range sortedRecordKeys(p.helpers) {
		h := p.helpers[o]
		lostParent, lostChild := false, false
		if h.parent.ok() && h.parent.Owner == v {
			p.clearHelperParent(h)
			lostParent = true
		}
		if h.left.ok() && h.left.Owner == v {
			h.left, lostChild = addr{}, true
		}
		if h.right.ok() && h.right.Owner == v {
			h.right, lostChild = addr{}, true
		}
		if lostChild {
			p.markDamaged(h, helperAddr(p.id, o), v)
		}
		switch {
		case lostParent, lostChild && !h.parent.ok():
			// Cut loose (or a damaged seed that already is a root).
			ps.annSent++
			n.Send(p.id, leader, msgRootAnnounce{Root: helperAddr(p.id, o), Epoch: v, Height: h.height}, wordsRootAnnounce)
		case lostChild:
			ps.walksOut++
			n.Send(p.id, h.parent.Owner, msgMarkDamaged{Target: h.parent, Epoch: v, Leader: leader, Origin: p.id}, wordsMarkDamaged)
		}
	}
	if _, isNbr := p.nbrs[v]; isNbr {
		if _, dup := p.leaves[v]; dup {
			panic(fmt.Sprintf("dist: leaf avatar (%d,%d) already exists", p.id, v))
		}
		p.leaves[v] = &leafRec{}
		ps.annSent++
		n.Send(p.id, leader, msgFreshLeaf{Leaf: leafAddr(p.id, v), Epoch: v}, wordsFreshLeaf)
	}
	ps.processed = true
	p.maybeNotifyDone(n, v, ps)
}

// maybeNotifyDone checks whether this participant's BT_v subtree has
// finished the notification phase — own death-processing run, every
// seeded walk acked, every BT_v child subtree done — and if so reports
// the subtree's completion and announcement count upward: subtree-done
// to the BT_v parent, or, at the root, phase-done to the elected
// leader. The participant state is dropped with the report; nothing
// else arrives for it.
func (p *processor) maybeNotifyDone(n transport.Endpoint, epoch NodeID, ps *partState) {
	if !ps.processed || ps.walksOut > 0 || ps.waitDone > 0 {
		return
	}
	delete(p.parts, epoch)
	// Recycle the scratch before the report goes out: everything still
	// needed is in locals (reuse resets the struct, so late reads of a
	// freed-but-unreused ps stay harmless).
	btParent, leader, annSent := ps.btParent, ps.leader, ps.annSent
	p.partFree = append(p.partFree, ps)
	if btParent != noNode {
		n.SendClass(p.id, btParent, msgSubtreeDone{Epoch: epoch, Announced: annSent}, wordsSubtreeDone, transport.ClassSync)
		return
	}
	if leader == p.id {
		// Root and leader at once (k = 1): apply the completion report
		// locally — the phase still starts only once our self-addressed
		// announcements have all arrived.
		rs := p.repair(epoch)
		rs.haveNotifyDone = true
		rs.annExpected = annSent
		p.maybeStartKeys(n, epoch, rs)
		return
	}
	n.SendClass(p.id, leader, msgPhaseDone{Epoch: epoch, Announced: annSent}, wordsPhaseDone, transport.ClassSync)
}

// maybeStartKeys launches the key phase once the notification phase is
// proven terminated: the BT_v completion report is in AND every
// announcement it counted has arrived. Sound under any delivery
// delays: announcements cannot be in flight once the counts match.
func (p *processor) maybeStartKeys(n transport.Endpoint, epoch NodeID, rs *repairState) {
	if rs.phase != phaseNotify || !rs.haveNotifyDone || rs.annRecvd != rs.annExpected {
		return
	}
	p.startKeys(n, epoch, rs)
}

// markDamaged sets the Breakflag for one epoch, panicking if a
// different repair already holds it: concurrent repairs never share a
// record (region admission serializes any two whose footprints
// overlap), so a cross-epoch collision here is an admission bug, not a
// state to recover from.
func (p *processor) markDamaged(h *helperRec, self addr, epoch NodeID) {
	if h.damaged && h.depoch != epoch {
		if !p.staleBreakflag(h) {
			panic(fmt.Sprintf("dist: helper %v double-stripped: damaged by concurrent epochs %d and %d",
				self, h.depoch, epoch))
		}
	}
	h.damaged, h.depoch = true, epoch
}

// staleBreakflag decides what a cross-epoch Breakflag collision means.
// Without the audit layer, state is only ever what the protocol wrote,
// so a collision is an admission bug and the caller panics. With
// the audit on, the self-stabilization model admits transient faults:
// the foreign flag is presumed corrupt, cleared, and counted, and the
// live repair proceeds as if the helper were fresh.
func (p *processor) staleBreakflag(h *helperRec) bool {
	if !p.auditOn {
		return false
	}
	h.damaged, h.depoch = false, 0
	p.aStats.Mismatches++
	p.aStats.Repairs++
	return true
}

// onMarkDamaged continues a damage walk through this processor's helper
// record, stopping at nodes already marked (another walk of the same
// repair passed by) and announcing the fragment root at the top.
// Whichever way the walk terminates, its origin gets one ack — the
// proof of completion the termination detection counts. The root
// announcement is sent before the ack, so when leader and origin
// coincide the announcement's smaller sequence number delivers it
// first.
func (p *processor) onMarkDamaged(n transport.Endpoint, m msgMarkDamaged) {
	h := p.mustHelper(m.Target)
	if h.damaged {
		if h.depoch != m.Epoch && !p.staleBreakflag(h) {
			panic(fmt.Sprintf("dist: helper %v double-stripped: damaged by concurrent epochs %d and %d",
				m.Target, h.depoch, m.Epoch))
		}
	}
	if h.damaged {
		n.SendClass(p.id, m.Origin, msgWalkAck{Epoch: m.Epoch, Announced: 0}, wordsWalkAck, transport.ClassSync)
		return
	}
	h.damaged, h.depoch = true, m.Epoch
	p.markTouched()
	if h.parent.ok() && h.parent.Owner != m.Epoch {
		n.Send(p.id, h.parent.Owner, msgMarkDamaged{Target: h.parent, Epoch: m.Epoch, Leader: m.Leader, Origin: m.Origin}, wordsMarkDamaged)
		return
	}
	// No parent — or a parent still pointing at the epoch's own dead
	// node: under congestion a walk can overtake this participant's
	// delayed begin-repair, which will clear that link and announce the
	// same root (announcements dedupe at the leader). Either way the
	// walk tops out here.
	n.Send(p.id, m.Leader, msgRootAnnounce{Root: m.Target, Epoch: m.Epoch, Height: h.height}, wordsRootAnnounce)
	n.SendClass(p.id, m.Origin, msgWalkAck{Epoch: m.Epoch, Announced: 1}, wordsWalkAck, transport.ClassSync)
}

// sortedRoots returns the announced fragment roots in deterministic
// order. The slice is the repairState's own scratch (recycled with it
// across epochs) and stays valid only until the next call; insertion
// sort keeps the hot repair path clear of sort.Slice's reflection
// allocations — fragment counts are small.
func (r *repairState) sortedRoots() []addr {
	roots := r.rootScratch[:0]
	for a := range r.roots {
		roots = append(roots, a)
	}
	for i := 1; i < len(roots); i++ {
		for j := i; j > 0 && roots[j].less(roots[j-1]); j-- {
			roots[j], roots[j-1] = roots[j-1], roots[j]
		}
	}
	r.rootScratch = roots
	return roots
}

// startKeys (leader): launch one prefer-left key probe per announced
// fragment root of the given repair. The probes are a leader burst and
// go out paced under finite bandwidth. Each probe yields exactly one
// reply (found or none), so counting replies to zero proves the phase
// complete — reply and probe travel the same request/response pair, so
// no separate count is needed; a watchdog bounded by the deepest
// fragment's height guards the wait. With no fragments at all the
// phase is vacuous and chains straight on.
func (p *processor) startKeys(n transport.Endpoint, epoch NodeID, rs *repairState) {
	rs.phase = phaseKeys
	roots := rs.sortedRoots()
	rs.outstanding = len(roots)
	if len(roots) == 0 {
		p.startStrip(n, epoch, rs)
		return
	}
	for _, root := range roots {
		p.sendPaced(n, root.Owner, msgKeyProbe{Comp: root, Target: root, Epoch: epoch, Leader: p.id}, wordsKeyProbe)
	}
	p.armWatchdog(n, epoch, rs, rs.maxRootHeight+3)
}

// keyReplied counts one probe reply; the last one proves the key phase
// complete and chains into the strip.
func (p *processor) keyReplied(n transport.Endpoint, epoch NodeID) {
	rs := p.reps[epoch]
	if rs == nil || rs.phase != phaseKeys {
		panic(fmt.Sprintf("dist: processor %d: key reply for epoch %d outside the key phase", p.id, epoch))
	}
	rs.outstanding--
	if rs.outstanding == 0 {
		p.startStrip(n, epoch, rs)
	}
}

// armWatchdog schedules the height-bounded phase watchdog: delay
// rounds out, carrying the phase it watches so a stale firing (the
// phase advanced, possibly in the very round the timer fired) is
// recognized and ignored.
func (p *processor) armWatchdog(n transport.Endpoint, epoch NodeID, rs *repairState, delay int) {
	n.SendTimer(p.id, msgPhaseWatch{Epoch: epoch, Phase: rs.phase, Delay: delay}, delay)
}

// onPhaseWatch is the watchdog firing: if the watched phase is still
// open the completion proofs are lagging (only possible under a finite
// bandwidth, where traffic legitimately queues), so the watchdog
// re-arms and keeps watching; the simulation's global round bound
// remains the hard failsafe. If the phase has advanced the firing is
// stale and ignored.
func (p *processor) onPhaseWatch(n transport.Endpoint, m msgPhaseWatch) {
	rs := p.reps[m.Epoch] // no allocation: the repair may be long gone
	if rs == nil || rs.phase != m.Phase {
		p.wdStale++
		return
	}
	p.wdRearmed++
	n.SendTimer(p.id, m, m.Delay)
}

// onKeyProbe performs one step of the prefer-left descent (core's
// leftmostLeafSlot): a leaf is the key; a helper forwards to its left
// child if present, else its right, and reports a dead end when both
// children are gone.
func (p *processor) onKeyProbe(n transport.Endpoint, m msgKeyProbe) {
	if m.Target.Kind == kindLeaf {
		p.mustLeaf(m.Target)
		n.Send(p.id, m.Leader, msgKeyFound{Comp: m.Comp, Key: m.Target.slot(), Epoch: m.Epoch}, wordsKeyFound)
		return
	}
	h := p.mustHelper(m.Target)
	next := h.left
	if !next.ok() {
		next = h.right
	}
	if !next.ok() {
		n.Send(p.id, m.Leader, msgKeyNone{Comp: m.Comp, Epoch: m.Epoch}, wordsKeyNone)
		return
	}
	n.Send(p.id, next.Owner, msgKeyProbe{Comp: m.Comp, Target: next, Epoch: m.Epoch, Leader: m.Leader}, wordsKeyProbe)
}

// startStrip (leader): start the distributed strip at every fragment
// root of the given repair, paced like every leader burst. Each
// fragment resolves bottom-up — every visited node acks its visitor
// once its whole subtree has resolved — and the fragment root's
// resolution reaches the leader as one strip-done carrying the
// fragment's descriptor count: the merge starts only when every
// fragment reported done AND exactly that many descriptors arrived
// (descriptors and acks travel different edges, so the count is what
// proves arrival). The watchdog bound is twice the deepest fragment's
// height (cascade down, convergecast back up).
func (p *processor) startStrip(n transport.Endpoint, epoch NodeID, rs *repairState) {
	rs.phase = phaseStrip
	roots := rs.sortedRoots()
	rs.outstanding = len(roots)
	if len(roots) == 0 {
		p.startMerge(n, epoch, rs)
		return
	}
	for _, root := range roots {
		p.sendPaced(n, root.Owner, msgStripVisit{Comp: root, Target: root, Epoch: epoch, Leader: p.id}, wordsStripVisit)
	}
	p.armWatchdog(n, epoch, rs, 2*rs.maxRootHeight+3)
}

// onStripDone books one fragment's strip completion and its descriptor
// count; maybeStartMerge decides whether the phase is proven over.
func (p *processor) onStripDone(n transport.Endpoint, m msgStripDone) {
	rs := p.reps[m.Epoch]
	if rs == nil || rs.phase != phaseStrip {
		panic(fmt.Sprintf("dist: processor %d: strip-done for epoch %d outside the strip phase", p.id, m.Epoch))
	}
	rs.outstanding--
	rs.descExpected += m.Descs
	p.maybeStartMerge(n, m.Epoch, rs)
}

// maybeStartMerge launches the merge once the strip phase is proven
// terminated: every fragment reported done and every counted
// descriptor has arrived.
func (p *processor) maybeStartMerge(n transport.Endpoint, epoch NodeID, rs *repairState) {
	if rs.phase != phaseStrip || rs.outstanding > 0 || rs.descRecvd != rs.descExpected {
		return
	}
	p.startMerge(n, epoch, rs)
}

// stripResolved reports one strip subtree fully resolved, carrying the
// subtree's descriptor count: an ack to the visiting parent node, or —
// at a fragment root — a strip-done to the leader.
func (p *processor) stripResolved(n transport.Endpoint, epoch NodeID, ackTo addr, leader NodeID, descs int) {
	if ackTo.ok() {
		n.SendClass(p.id, ackTo.Owner, msgStripAck{Epoch: epoch, Target: ackTo, Descs: descs}, wordsStripAck, transport.ClassSync)
		return
	}
	n.SendClass(p.id, leader, msgStripDone{Epoch: epoch, Descs: descs}, wordsStripDone, transport.ClassSync)
}

// onStripVisit decides this node's fate in the strip, exactly as core's
// stripFast: an undamaged node whose stored fields say perfect is a
// maximal intact complete subtree (a primary root, reported to the
// leader); anything else is discarded — the helper retires — and the
// visit cascades to its children, with a stripWaiter left behind to
// forward the resolution once every child subtree has acked.
func (p *processor) onStripVisit(n transport.Endpoint, m msgStripVisit) {
	report := func(leafCount, height int, rep slot) {
		n.Send(p.id, m.Leader, msgDescriptor{
			Comp: m.Comp, Depth: m.Depth, Path: m.Path, Epoch: m.Epoch,
			Node: m.Target, LeafCount: leafCount, Height: height, Rep: rep,
		}, wordsDescriptor)
	}
	p.markTouched()
	if m.Target.Kind == kindLeaf {
		l := p.mustLeaf(m.Target)
		p.clearLeafParent(l)
		report(1, 0, m.Target.slot())
		p.stripResolved(n, m.Epoch, m.AckTo, m.Leader, 1)
		return
	}
	h := p.mustHelper(m.Target)
	if h.damaged && h.depoch != m.Epoch && !p.staleBreakflag(h) {
		panic(fmt.Sprintf("dist: helper %v stripped by epoch %d while damaged by epoch %d",
			m.Target, m.Epoch, h.depoch))
	}
	if !h.damaged && h.leafCount == 1<<uint(h.height) {
		p.clearHelperParent(h)
		report(h.leafCount, h.height, h.rep)
		p.stripResolved(n, m.Epoch, m.AckTo, m.Leader, 1)
		return
	}
	// Discarded ("marked red"): the helper retires before any join, per
	// Lemma 3.2 — its slot may be re-chosen for a new helper this very
	// repair, and the strip convergecast guarantees the retirement lands
	// before the merge phase can issue instructions for the slot.
	p.clearHelperParent(h)
	delete(p.helpers, m.Target.Other)
	children := 0
	for _, c := range [2]addr{h.left, h.right} {
		if c.ok() {
			children++
		}
	}
	if children == 0 {
		p.stripResolved(n, m.Epoch, m.AckTo, m.Leader, 0)
		return
	}
	if p.stripWait == nil {
		p.stripWait = make(map[addr]*stripWaiter)
	}
	p.stripWait[m.Target] = &stripWaiter{
		epoch: m.Epoch, waiting: children, ackTo: m.AckTo, leader: m.Leader,
	}
	for dir, c := range [2]addr{h.left, h.right} {
		if !c.ok() {
			continue
		}
		n.Send(p.id, c.Owner, msgStripVisit{
			Comp: m.Comp, Target: c,
			Depth: m.Depth + 1, Path: m.Path<<1 | uint64(dir),
			Epoch:  m.Epoch,
			Leader: m.Leader,
			AckTo:  m.Target,
		}, wordsStripVisit)
	}
}

// onStripAck resolves one child subtree of a retired helper's cascade;
// the last one forwards the resolution — and the accumulated
// descriptor count — upward and drops the waiter.
func (p *processor) onStripAck(n transport.Endpoint, m msgStripAck) {
	w, ok := p.stripWait[m.Target]
	if !ok || w.epoch != m.Epoch {
		panic(fmt.Sprintf("dist: processor %d: strip ack for unknown cascade %v (epoch %d)", p.id, m.Target, m.Epoch))
	}
	w.waiting--
	w.descs += m.Descs
	if w.waiting > 0 {
		return
	}
	delete(p.stripWait, m.Target)
	p.stripResolved(n, m.Epoch, w.ackTo, w.leader, w.descs)
}

// onCreateHelper starts simulating a fresh helper with fully wired
// links from the leader's merge plan, confirming the instruction back
// to its sender — the leader — with the completion proof the merge
// phase counts.
func (p *processor) onCreateHelper(n transport.Endpoint, leader NodeID, m msgCreateHelper) {
	p.markTouched()
	if _, exists := p.helpers[m.Slot.Other]; exists {
		panic(fmt.Sprintf("dist: representative mechanism chose occupied slot %v", m.Slot))
	}
	p.helpers[m.Slot.Other] = &helperRec{
		parent: m.Parent, left: m.Left, right: m.Right,
		height: m.Height, leafCount: m.LeafCount, rep: m.Rep,
	}
	if m.Parent.ok() {
		p.logPhys(true, m.Parent.Owner)
	}
	p.sendPacedClass(n, leader, msgMergeAck{Epoch: m.Epoch}, wordsMergeAck, transport.ClassSync)
}

// onSetParent re-parents one of this processor's existing nodes,
// acking the instruction like onCreateHelper.
func (p *processor) onSetParent(n transport.Endpoint, leader NodeID, m msgSetParent) {
	p.markTouched()
	if m.Target.Kind == kindLeaf {
		l := p.mustLeaf(m.Target)
		p.clearLeafParent(l)
		l.parent = m.Parent
	} else {
		h := p.mustHelper(m.Target)
		p.clearHelperParent(h)
		h.parent = m.Parent
	}
	if m.Parent.ok() {
		p.logPhys(true, m.Parent.Owner)
	}
	p.sendPacedClass(n, leader, msgMergeAck{Epoch: m.Epoch}, wordsMergeAck, transport.ClassSync)
}

// onMergeAck counts one applied merge instruction; the last ack proves
// the repair complete. Completion retires the leader scratch and
// registers the repair on the engine's done list — the in-band signal
// that drives RepairDone events and leader-to-leader handoff of
// serialized regions.
func (p *processor) onMergeAck(n transport.Endpoint, m msgMergeAck) {
	rs := p.reps[m.Epoch]
	if rs == nil || rs.phase != phaseMerge {
		panic(fmt.Sprintf("dist: processor %d: merge ack for epoch %d outside the merge phase", p.id, m.Epoch))
	}
	rs.outstanding--
	if rs.outstanding == 0 {
		p.finishRepair(m.Epoch)
	}
}

// finishRepair retires one repair the leader has proven complete,
// recycling its scratch (reset happens at reuse, so callers that just
// passed the scratch in may still read it after returning here).
func (p *processor) finishRepair(epoch NodeID) {
	if r, ok := p.reps[epoch]; ok {
		delete(p.reps, epoch)
		p.repFree = append(p.repFree, r)
	}
	p.done.add(epoch, p.id)
}

func (p *processor) mustLeaf(a addr) *leafRec {
	l, ok := p.leaves[a.Other]
	if !ok || a.Owner != p.id || a.Kind != kindLeaf {
		panic(fmt.Sprintf("dist: processor %d: no leaf record for %v", p.id, a))
	}
	return l
}

func (p *processor) mustHelper(a addr) *helperRec {
	h, ok := p.helpers[a.Other]
	if !ok || a.Owner != p.id || a.Kind != kindHelper {
		panic(fmt.Sprintf("dist: processor %d: no helper record for %v", p.id, a))
	}
	return h
}
