// Package dist implements the Forgiving Graph as a message-level
// distributed protocol (the paper's Appendix A) running on the
// deterministic round-synchronous simulator of internal/simnet.
//
// Unlike the reference engine of internal/core — which applies the
// virtual-graph semantics atomically with global pointers — every
// processor here keeps only O(1) words per incident G′ edge: its leaf
// avatar and helper records (internal/haft shapes, Lemma 1) with tree
// links stored as (owner, edge) addresses. All repair coordination is
// simnet messages of O(1)–O(log n)-bit words:
//
//  1. Death notification and leader election. The deleted node's
//     physical neighbors (G′ neighbors plus tree neighbors of its
//     avatars) are informed, per the model; the notification carries
//     each neighbor's slot in BT_v, the coordination tree over the
//     notified set. The participants elect the repair leader by a
//     pairwise knockout tournament up BT_v — O(log d) rounds of
//     O(1)-word champion messages — then all begin together: detach
//     the dangling links, seed the damage walks, and grow fresh leaf
//     avatars for the half-dead edges.
//  2. Damage walks. Every helper that lost a child propagates a
//     Breakflag up its parent chain (Algorithm A.5): those nodes no
//     longer head intact subtrees. Walks stop at already-marked nodes
//     and announce the fragment roots they reach; every walk's
//     terminator acks its origin, and a convergecast up BT_v proves
//     the whole phase done to the leader.
//  3. Key probes. Each fragment root runs the prefer-left descent that
//     yields its component's deterministic ordering key; the leader
//     counts one reply per probe to completion.
//  4. Distributed strip. Fragment roots cascade strip visits downward;
//     undamaged stored-perfect nodes detach as primary roots and report
//     O(1)-word descriptors to the leader; damaged or imperfect helpers
//     retire (Lemma 2). Resolution acks convergecast back up each
//     fragment, proving the strip complete.
//  5. Merge. The leader replays the engine's exact haft.Merge over the
//     descriptors (Algorithm A.9, binary addition of trees) and
//     broadcasts the join plan as link instructions.
//
// There is NO out-of-band synchronization anywhere in a repair: each
// one is a message-driven state machine whose leader proves every
// phase's termination in-band — height-bounded convergecast acks
// guarded by height-bounded watchdog timers — chains into the next
// phase itself, and proves its own COMPLETION by counting the merge
// plan's instruction acks. Election and termination-detection traffic
// is charged like all other traffic and reported separately
// (ElectionRounds/SyncRounds), so the round and message counts are
// honest about what coordination costs. The result is behaviorally
// equivalent to internal/core — the same healed graph on the same
// operation sequence, which the differential tests assert — while
// per-repair traffic obeys Theorem 1.3: O(d log n) messages of
// O(log n) bits and O(log d · log n) rounds for a deleted node of
// G′-degree d.
//
// The simulation is driven open-loop (see engine.go): Submit enqueues
// inserts and deletes at any time, Tick/Run advance the network under
// caller control, and typed completion events are drained via Poll.
// Repairs of disjoint regions pipeline; colliding ones serialize in
// submission order, handed off leader-to-leader. The blocking calls —
// Insert, Delete, DeleteBatch — are thin wrappers over the engine
// (Delete = Submit + Drain) preserving the original semantics and
// stats.
//
// Deletions arriving in bursts run through DeleteBatch, which queues
// the batch in ascending order through the same region admission and
// drains the engine: every message carries its repair's epoch, repairs
// of independent damaged regions overlap, and only colliding ones
// serialize (see batch.go). A batch of one is exactly Delete.
package dist

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/audit"
	"repro/internal/graph"
	"repro/internal/haft"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// RecoveryStats reports the measured cost of one deletion's repair, the
// quantities Theorem 1.3 / Lemma 4 bound.
type RecoveryStats struct {
	// Deleted is the removed processor; DegreePrime its G′ degree (the
	// d in the bounds).
	Deleted     NodeID
	DegreePrime int
	// Messages and Rounds count protocol traffic and synchronous rounds
	// until quiescence.
	Messages int
	Rounds   int
	// TotalWords and MaxWords measure message sizes in O(log n)-bit
	// words.
	TotalWords int
	MaxWords   int
	// MaxSentByNode is the largest number of messages any single
	// processor sent during the repair.
	MaxSentByNode int
	// NsetSize is the number of processors notified of the deletion —
	// the paper's BT_v coordination set.
	NsetSize int
	// QueuedWords, MaxEdgeBacklog and CongestionRounds mirror the
	// simulator's congestion counters for this repair: words deferred
	// by the per-edge bandwidth limit (round-weighted), the deepest
	// single-edge backlog, and the number of congested rounds. All zero
	// under the default unlimited bandwidth.
	QueuedWords      int
	MaxEdgeBacklog   int
	CongestionRounds int
	// ElectionRounds / SyncRounds expose the synchronization cost the
	// old barrier-driven protocol hid: rounds that carried leader-
	// election tournament traffic and rounds that carried termination-
	// detection traffic (walk acks, convergecast dones). Both kinds of
	// messages are also included in Messages/TotalWords — coordination
	// is charged like any other traffic. ElectionMessages/SyncMessages
	// are the corresponding message counts.
	ElectionRounds   int
	SyncRounds       int
	ElectionMessages int
	SyncMessages     int
}

// Simulation is a distributed Forgiving Graph: processors exchanging
// messages over a synchronous network, with per-repair cost accounting.
// It is not safe for concurrent use; the model is a strictly
// alternating adversary/repair loop.
type Simulation struct {
	net    transport.Driver
	gprime *graph.Graph
	alive  map[NodeID]struct{}
	dead   map[NodeID]struct{}
	procs  map[NodeID]*processor

	// Incrementally maintained physical network (see physical.go).
	phys     *graph.Graph
	physMult map[graph.Edge]int
	dirty    *dirtyList

	// touchers tracks processors whose records changed since the last
	// verification, feeding the incremental VerifyDelta.
	touchers *dirtyList

	// bandwidth is the per-edge words-per-round cap (0 = unlimited);
	// minCap is the smallest positive cap ever configured on any layer
	// (global, per-edge, per-node), sizing the quiescence bound's
	// congestion slack; spread paces the leader's instruction bursts
	// under a finite cap.
	bandwidth int
	minCap    int
	spread    bool

	last      RecoveryStats
	lastBatch BatchStats

	// Open-loop engine state (see engine.go): the submission queue, the
	// repairs in flight keyed by epoch, the completion list leaders
	// register on in-band, the event buffer and optional streaming
	// observer, and the most recent completed flight's stats. async
	// turns on event buffering once the engine is used asynchronously.
	pending    []*pendingOp
	opSeq      int // submission sequence ticket (Event.Seq)
	inflight   map[NodeID]*flight
	done       *doneList
	events     []Event
	observer   func(Event)
	observerQ  []Event
	async      bool
	inBlocking bool
	lastFlight RecoveryStats

	// Region admission's bookkeeping (see engine.go): claims maps each
	// processor inside an in-flight repair's region to that repair's
	// epoch; stateGen counts the points where processor state can
	// change, so a footprint computed at the current generation is
	// still exact; blocked stamps the footprints of the operations the
	// current admission sweep kept pending, and scratch deduplicates
	// and intersects footprints.
	claims   map[NodeID]NodeID
	stateGen uint64
	blocked  stamps
	scratch  stamps

	// bound caches the quiescence bound, recomputed lazily when the
	// node count or the narrowest capacity changes — open-loop ticking
	// must not recompute it per round.
	bound      int
	boundDirty bool

	// Self-stabilizing audit layer (see audit.go): the pacing config,
	// the driver-side counters (phantom-footprint sweeps), and the
	// sweep's stall counter.
	auditOn    bool
	auditCfg   audit.Config
	audStats   audit.Stats
	auditStall int

	// Incremental connectivity certificate (see cert.go): component
	// trackers over the maintained physical graph and over G′ (live
	// nodes marked), the sticky refinement-violation error, and scratch
	// for the removal path.
	physCC     *graph.Components
	gpCC       *graph.Components
	certErr    error
	nbrScratch []NodeID

	// Deterministic sample cursor (see verify_delta.go): live processors
	// in insertion order (IDs are never reused), the round-robin cursors
	// of VerifyDelta's opportunistic sweep and the audit layer's
	// certificate sweep, and the last sample taken (reused buffer).
	sweepSeq   []NodeID
	sweepCur   int
	certCur    int
	lastSample []NodeID

	// btOrder is layBT's reusable scratch (driver-side only).
	btOrder []NodeID

	// Incremental degree indexes (see stubs.go): the Fenwick-weighted
	// preferential-attachment stub multiset the adversary samples in
	// O(log n), and the lazy max-heap over physical/G′ degree ratios
	// that replaced the soak checkpoints' O(n) metrics.Degrees sweep.
	stubs *stubIndex
	degs  *degTracker

	// Coalescing admission queue (see coalesce.go): policy and counters.
	coalesceOn bool
	coalCfg    CoalesceConfig
	coalStats  CoalesceStats
}

// NewSimulation builds the distributed network over an initial
// topology, running on the deterministic round-synchronous simulator
// (internal/simnet) — the measurement backend. Per the model there is
// no pre-processing: processors start knowing only their neighbor
// lists.
func NewSimulation(g0 *graph.Graph) *Simulation {
	return NewSimulationOn(g0, simnet.New())
}

// NewSimulationOn builds the distributed network over an initial
// topology on an explicit transport backend (internal/simnet for
// deterministic rounds, internal/channet for goroutine-per-processor
// real concurrency, internal/wirenet for TCP between OS processes).
// The transport must be empty: the simulation owns node registration.
//
// The simulation drives the backend through the control plane
// (transport.Driver): synchronous transports are adapted by
// transport.NewDriver, backends that already implement Driver (the
// wire hub) are used natively.
func NewSimulationOn(g0 *graph.Graph, net transport.Transport) *Simulation {
	s := &Simulation{
		net:    transport.NewDriver(net),
		gprime: g0.Clone(),
		alive:  make(map[NodeID]struct{}, g0.NumNodes()),
		dead:   make(map[NodeID]struct{}),
		procs:  make(map[NodeID]*processor, g0.NumNodes()),
	}
	s.initPhys(g0)
	s.touchers = &dirtyList{}
	s.done = &doneList{}
	s.inflight = make(map[NodeID]*flight)
	s.claims = make(map[NodeID]NodeID)
	s.blocked.at = make(map[NodeID]uint64)
	s.scratch.at = make(map[NodeID]uint64)
	s.spread = true
	s.boundDirty = true
	for _, v := range g0.Nodes() {
		s.addProcessor(v)
	}
	for _, v := range g0.Nodes() {
		p := s.procs[v]
		s.gprime.EachNeighbor(v, func(x NodeID) {
			p.nbrs[x] = struct{}{}
		})
	}
	return s
}

// Close releases the transport's machinery (worker processes and
// sockets on the wire backend; a no-op for the in-process backends).
// The simulation must not be used afterwards.
func (s *Simulation) Close() error { return s.net.Close() }

// WorkerPIDs returns the OS process IDs of the transport's worker
// processes, or nil for in-process backends — introspection for demos
// and operational checks that the fabric really spans processes.
func (s *Simulation) WorkerPIDs() []int {
	if w, ok := netAs[interface{ WorkerPIDs() []int }](s.net); ok {
		return w.WorkerPIDs()
	}
	return nil
}

// netAs probes the backend for an optional capability T. The probe
// must reach the backend itself, not the Driver adapter a synchronous
// transport is wrapped in, so it type-asserts on the driver first and
// then behind Unwrap.
func netAs[T any](d transport.Driver) (T, bool) {
	if v, ok := any(d).(T); ok {
		return v, true
	}
	if u, ok := any(d).(transport.Unwrapper); ok {
		v, ok := any(u.Unwrap()).(T)
		return v, ok
	}
	var zero T
	return zero, false
}

func (s *Simulation) addProcessor(v NodeID) {
	p := newProcessor(v)
	p.dirty = s.dirty
	p.touchers = s.touchers
	p.done = s.done
	p.spread = s.spread
	s.procs[v] = p
	s.alive[v] = struct{}{}
	s.sweepSeq = append(s.sweepSeq, v)
	s.stubs.addNode(v)
	if d := s.phys.Degree(v); d > 0 {
		// Initial topology: the physical graph already carries v's edges.
		s.stubs.adjust(v, d)
	}
	s.degChanged(v)
	s.gpCC.OnAddNode(v) // no-op for initial nodes, labeled at construction
	s.gpCC.Mark(v)
	s.net.AddNode(v, p.handle)
	if s.auditOn {
		p.auditOn, p.auditCfg = true, s.auditCfg
		s.armAuditTick(v)
	}
}

// SetBandwidth caps every network edge at the given number of
// message-words per round (0, the default, is unlimited — the paper's
// model). Under a finite cap excess traffic queues FIFO per edge and
// spills into later rounds: the healed graph is identical for every
// cap, only rounds (and the congestion counters in the stats) change.
func (s *Simulation) SetBandwidth(words int) {
	s.bandwidth = words
	s.noteCap(words)
	s.net.SetBandwidth(words)
}

// noteCap remembers the narrowest positive cap ever configured, so the
// quiescence bound's congestion slack covers the slowest link.
func (s *Simulation) noteCap(words int) {
	if words > 0 && (s.minCap == 0 || words < s.minCap) {
		s.minCap = words
		s.boundDirty = true
	}
}

// SetEdgeBandwidth overrides the capacity of one directed edge,
// modeling heterogeneous links; words <= 0 clears the override. The
// leader's send pacing consults the per-edge budgets, so a narrower
// cap on one link trickles that link at its own rate instead of
// piling avoidable backlog onto it.
func (s *Simulation) SetEdgeBandwidth(from, to NodeID, words int) {
	s.noteCap(words)
	s.net.SetEdgeBandwidth(from, to, words)
}

// SetNodeBandwidth caps every link incident to one processor at the
// given words per round (0 clears) — a slow access link in a
// heterogeneous topology. Compounds with the global and per-edge caps
// by minimum; the send pacing sees the clamped budgets too.
func (s *Simulation) SetNodeBandwidth(v NodeID, words int) {
	s.noteCap(words)
	s.net.SetNodeBandwidth(v, words)
}

// EdgeCapacity returns the effective words-per-round capacity of one
// directed edge (0 = unlimited), every cap layer applied. Adversaries
// targeting the slowest links read it.
func (s *Simulation) EdgeCapacity(from, to NodeID) int {
	return s.net.EdgeBudget(from, to)
}

// SetSpread toggles sender-side pacing of the repair leader's
// instruction bursts (key probes, strip visits, and the merge plan's
// link instructions). Default on: under a finite bandwidth the leader
// trickles at most the edge budget per destination per round from a
// local outbox instead of dumping the whole burst into the network,
// which shrinks MaxEdgeBacklog without changing the healed graph. Off
// reproduces the bursty behavior, useful for measuring the hotspot the
// pacing removes. No effect under unlimited bandwidth.
func (s *Simulation) SetSpread(on bool) {
	s.spread = on
	for _, p := range s.procs {
		p.spread = on
	}
}

// Alive reports whether processor v is currently in the network.
func (s *Simulation) Alive(v NodeID) bool {
	_, ok := s.alive[v]
	return ok
}

// NumAlive returns the number of live processors.
func (s *Simulation) NumAlive() int { return len(s.alive) }

// NumEver returns |G′|: every processor ever inserted, deleted or not.
func (s *Simulation) NumEver() int { return s.gprime.NumNodes() }

// LiveNodes returns the live processors in ascending order.
func (s *Simulation) LiveNodes() []NodeID {
	out := make([]NodeID, 0, len(s.alive))
	for v := range s.alive {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// GPrime returns a snapshot of G′ (insertions only, no deletions
// applied). The caller owns the copy.
func (s *Simulation) GPrime() *graph.Graph { return s.gprime.Clone() }

// LastRecovery returns the cost of the most recent blocking deletion's
// repair. Repairs completing through the open-loop engine report their
// cost in the RepairDone event instead.
func (s *Simulation) LastRecovery() RecoveryStats { return s.last }

// Round returns the transport's pulse counter: rounds on simnet,
// delivered pulses on channet.
func (s *Simulation) Round() int { return s.net.Round() }

// NetMessages returns the delivered network message total since the
// transport's stats were last reset, all classes included.
func (s *Simulation) NetMessages() int { return s.net.Stats().Messages }

// Insert adds processor v connected to the given live neighbors, per
// the model's adversarial insertion, applied synchronously. It is the
// blocking form of submitting an OpInsert and requires an idle engine;
// under asynchronous churn use Submit, which defers inserts landing in
// a damaged region until the region's repair completes.
func (s *Simulation) Insert(v NodeID, nbrs []NodeID) error {
	if err := s.requireIdle("insert"); err != nil {
		return err
	}
	defer s.beginBlocking()()
	return s.insertNow(v, nbrs)
}

// insertNow applies one insertion. Insertion triggers no repair and
// costs no protocol traffic; the new edges join both G′ and the actual
// network.
func (s *Simulation) insertNow(v NodeID, nbrs []NodeID) error {
	if s.gprime.HasNode(v) {
		return fmt.Errorf("dist: insert %d: id already used (ids are never reused)", v)
	}
	seen := make(map[NodeID]struct{}, len(nbrs))
	for _, x := range nbrs {
		if x == v {
			return fmt.Errorf("dist: insert %d: self edge", v)
		}
		if !s.Alive(x) {
			return fmt.Errorf("dist: insert %d: neighbor %d is not a live node", v, x)
		}
		if _, dup := seen[x]; dup {
			return fmt.Errorf("dist: insert %d: duplicate neighbor %d", v, x)
		}
		seen[x] = struct{}{}
	}
	s.stateGen++
	s.gprime.AddNode(v)
	s.boundDirty = true
	s.addProcessor(v)
	s.phys.AddNode(v)
	s.physCC.OnAddNode(v)
	p := s.procs[v]
	p.markTouched()
	for _, x := range nbrs {
		if s.gprime.AddEdge(v, x) {
			s.gpCC.OnAddEdge(v, x)
		}
		p.nbrs[x] = struct{}{}
		s.procs[x].nbrs[v] = struct{}{}
		s.procs[x].markTouched()
		s.physAdd(v, x)
		// physAdd refreshed the physical side; the G′ degrees moved too.
		s.degChanged(v)
		s.degChanged(x)
	}
	return nil
}

// pendingRepair is one deletion whose repair is about to run: the
// processors to notify (the paper's BT_v set). The deleted node's ID
// doubles as the repair's epoch. The repair leader is NOT chosen here
// — the participants elect it in-band by the knockout tournament over
// BT_v.
type pendingRepair struct {
	v      NodeID
	notify []NodeID
}

// affectedBy returns the processors holding a link to v — its G′
// neighbors plus owners of tree nodes adjacent to its avatars — each
// once, in no particular order. These are exactly v's physical
// neighbors, who detect the deletion per the model. The result is
// deduplicated in s.scratch and stays stamped there, so deleteRegion
// extends the same set.
func (s *Simulation) affectedBy(v NodeID) []NodeID {
	p := s.procs[v]
	var affected []NodeID
	s.scratch.reset()
	add := func(x NodeID) {
		if s.scratch.add(x) {
			affected = append(affected, x)
		}
	}
	addOwner := func(a addr) {
		if a.ok() && a.Owner != v {
			add(a.Owner)
		}
	}
	for x := range p.nbrs {
		if _, live := s.alive[x]; live {
			add(x)
		}
	}
	for _, l := range p.leaves {
		addOwner(l.parent)
	}
	for _, h := range p.helpers {
		addOwner(h.parent)
		addOwner(h.left)
		addOwner(h.right)
	}
	return affected
}

// removeProcessor takes v out of the network: its live G′ edges and the
// physical images of its records' parent links disappear with it (the
// dangling links on surviving neighbors are cleared — and logged — by
// their death handlers).
func (s *Simulation) removeProcessor(v NodeID) {
	p := s.procs[v]
	// Audit counters survive their processor: fold them into the
	// simulation-level accumulator, or churn silently erases most of
	// the pass/probe/repair history AuditStats reports.
	s.audStats.Add(p.aStats)
	s.gprime.EachNeighbor(v, func(x NodeID) {
		if _, live := s.alive[x]; live && x != v {
			s.physDel(v, x)
		}
	})
	for _, l := range p.leaves {
		if l.parent.ok() {
			s.physDel(v, l.parent.Owner)
		}
	}
	for _, h := range p.helpers {
		if h.parent.ok() {
			s.physDel(v, h.parent.Owner)
		}
	}
	delete(s.alive, v)
	s.dead[v] = struct{}{}
	delete(s.procs, v)
	s.net.RemoveNode(v)
	// Physical edges into v from OTHER processors' records (parent-link
	// images owned by survivors) may still carry positive multiplicity;
	// their delete edits arrive through the survivors' edit logs and
	// drain later. The node leaves the graph now, so remove the
	// remaining incident edges explicitly — the connectivity
	// certificate's settle is sound only if every incident edge of a
	// removed node is recorded — and let the late drains find
	// multiplicity hitting zero with the edge already gone (physDel
	// tolerates that). Neighbors are collected first, as the graph must
	// not be mutated mid-iteration, and removed last to first: each is
	// then v's last edge, which RemoveEdge finds at once.
	s.nbrScratch = s.nbrScratch[:0]
	s.phys.EachNeighbor(v, func(x NodeID) { s.nbrScratch = append(s.nbrScratch, x) })
	for i := len(s.nbrScratch) - 1; i >= 0; i-- {
		if x := s.nbrScratch[i]; s.phys.RemoveEdge(v, x) {
			s.physCC.OnRemoveEdge(v, x)
			s.stubs.adjust(x, -1)
			s.degChanged(x)
		}
	}
	s.phys.RemoveNode(v)
	s.physCC.OnRemoveNode(v)
	s.gpCC.Unmark(v)
	s.stubs.removeNode(v)
	s.degs.remove(v)
}

// prepareRepair removes v from the network, returning nil when v was
// isolated in the virtual graph (nothing to repair).
func (s *Simulation) prepareRepair(v NodeID) *pendingRepair {
	notify := s.affectedBy(v)
	s.removeProcessor(v)
	if len(notify) == 0 {
		return nil
	}
	slices.Sort(notify)
	return &pendingRepair{v: v, notify: notify}
}

// Delete removes processor v and runs the distributed repair to
// quiescence, recording its cost in LastRecovery. It is the blocking
// form of submitting an OpDelete and draining the engine (which is
// exactly how it is implemented), and requires an idle engine.
func (s *Simulation) Delete(v NodeID) error {
	if err := s.requireIdle("delete"); err != nil {
		return err
	}
	if !s.Alive(v) {
		return fmt.Errorf("dist: delete %d: not a live node", v)
	}
	defer s.beginBlocking()()
	s.last = RecoveryStats{Deleted: v, DegreePrime: s.gprime.Degree(v)}
	s.net.ResetStats()
	s.pending = append(s.pending, &pendingOp{
		op: Op{Kind: OpDelete, V: v}, submitRound: s.net.Round(), after: noNode,
	})
	s.admit()
	if err := s.Drain(); err != nil {
		return fmt.Errorf("dist: delete %d: %w", v, err)
	}
	st := s.net.Stats()
	s.last.Messages = st.Messages
	s.last.Rounds = st.Rounds
	s.last.TotalWords = st.TotalWords
	s.last.MaxWords = st.MaxWords
	s.last.MaxSentByNode = st.MaxSentByNode
	s.last.NsetSize = s.lastFlight.NsetSize
	s.last.QueuedWords = st.QueuedWords
	s.last.MaxEdgeBacklog = st.MaxEdgeBacklog
	s.last.CongestionRounds = st.CongestionRounds
	s.last.ElectionRounds = st.ElectionRounds
	s.last.SyncRounds = st.SyncRounds
	s.last.ElectionMessages = st.ElectionMessages
	s.last.SyncMessages = st.SyncMessages
	return nil
}

// roundBound is the quiescence bound for one phase: a generous
// multiple of the O(log n) depth any single phase can need, plus —
// under a finite per-edge bandwidth — slack for the rounds a congested
// edge takes to drain. A phase's total traffic is O(d log n) words
// with d < n, an edge carries at least B words (or one message) per
// round, so the slack below is far beyond any honest run; hitting the
// bound still means the protocol is broken, never that it is slow.
// The bound is cached — it changes only when a node is inserted or a
// narrower capacity appears — so the open-loop engine's per-tick
// bookkeeping stays O(1).
func (s *Simulation) roundBound() int {
	if s.boundDirty {
		logn := haft.CeilLog2(s.gprime.NumNodes()) + 2
		bound := 32*logn + 64
		if B := s.minCap; B > 0 {
			bound += 64 * (s.gprime.NumNodes() + 2) * logn / B
		}
		if s.auditOn {
			// Audit passes fire mid-drain and their conversations need a
			// couple of rounds each; two full periods of slack covers any
			// pass the bound window can contain.
			bound += 2*s.auditCfg.Period + 64
		}
		s.bound, s.boundDirty = bound, false
	}
	return s.bound
}
