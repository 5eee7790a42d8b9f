// Package protocol exposes the message-level Forgiving Graph protocol
// (the paper's Appendix A) for downstream use: a deterministic
// simulation of processors exchanging messages over a synchronous
// network, with per-repair cost accounting against Lemma 4.
//
// Use the root package repro for the data structure itself; use this
// package when you care about the distributed execution — message
// counts, message sizes, round complexity, or running the repair with a
// goroutine per processor.
//
// # Open-loop churn engine
//
// The network is driven in one of two styles. The blocking calls —
// Insert, Delete, DeleteBatch — apply one operation at a time, running
// the simulated network to quiescence before returning, with the cost
// in LastRepair/LastBatch: the measurement mode, and the paper's
// strictly alternating adversary/repair loop. The asynchronous API
// models continuous churn instead: Submit enqueues inserts and deletes
// at any time (including while repairs are in flight), Tick and Run
// advance the network round by round under caller control, and typed
// completion events — RepairDone with its RepairCost, InsertApplied,
// BatchDone, OpRejected — are drained via Poll or streamed through
// SetObserver. Operations behave as if executed one at a time in
// submission order (the differential tests assert the healed graph is
// bit-identical to that serialized replay), but repairs of disjoint
// regions pipeline: a deletion submitted mid-repair is admitted the
// moment its region is free, a deletion colliding with an in-flight
// repair is handed off leader-to-leader when that repair completes,
// and an insert landing in a damaged region is deferred until the
// region heals. The blocking calls are thin wrappers over the engine
// (Delete = Submit + Drain) and require an idle engine.
package protocol

import (
	"fmt"
	"math/rand"

	"repro/internal/audit"
	"repro/internal/channet"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wirenet"
)

// NodeID identifies a processor.
type NodeID int64

// Edge is an undirected edge.
type Edge struct {
	U, V NodeID
}

// RepairCost reports the measured cost of one deletion's repair, the
// quantities Lemma 4 bounds: O(d·log n) messages of size O(log n) and
// O(log d · log n) rounds for a deleted node of degree d.
type RepairCost struct {
	// Deleted is the removed processor; DegreePrime its G′ degree (the
	// d in the bounds).
	Deleted     NodeID
	DegreePrime int
	// Messages and Rounds count protocol traffic and synchronous
	// rounds until quiescence.
	Messages int
	Rounds   int
	// TotalWords and MaxWords measure message sizes in O(log n)-bit
	// words.
	TotalWords int
	MaxWords   int
	// MaxSentByNode bounds any single processor's traffic.
	MaxSentByNode int
	// BTvSize is the size of the repair's coordination tree.
	BTvSize int
	// QueuedWords, MaxEdgeBacklog and CongestionRounds report the
	// repair's congestion under a finite per-edge bandwidth (see
	// SetBandwidth): round-weighted words deferred by full edges, the
	// deepest single-edge backlog, and how many rounds deferred
	// anything. All zero under the default unlimited bandwidth.
	QueuedWords      int
	MaxEdgeBacklog   int
	CongestionRounds int
	// ElectionRounds and SyncRounds expose the repair's in-band
	// coordination cost: rounds carrying the leader-election
	// tournament and rounds carrying termination-detection traffic
	// (acks and convergecast dones). The corresponding messages are
	// included in Messages — synchronization is charged, not assumed.
	ElectionRounds   int
	SyncRounds       int
	ElectionMessages int
	SyncMessages     int
}

// Network is a distributed Forgiving Graph: every processor holds only
// its own per-edge records and all repair coordination happens through
// simulated messages. Not safe for concurrent use.
type Network struct {
	s    *dist.Simulation
	kind TransportKind
}

// TransportKind selects the message-passing substrate the processors
// run on. Both substrates execute the identical per-processor protocol
// and heal bit-identically (the transport-equivalence differential
// tests assert this); they differ in how delivery is scheduled and in
// which measurement knobs exist.
type TransportKind int

const (
	// TransportSim is the deterministic round-synchronous simulator:
	// global rounds, sorted delivery, and the full congestion model
	// (SetBandwidth and friends). The measurement mode.
	TransportSim TransportKind = iota
	// TransportChan runs processors as goroutines over Go channels
	// with per-processor logical clocks — no global round barrier, the
	// Go scheduler picks the interleaving. It has no bandwidth model:
	// SetBandwidth with a positive cap panics, and congestion counters
	// read zero. Use it to check liveness and healing under a real
	// scheduler; use TransportSim for cost tables.
	TransportChan
	// TransportWire runs the message fabric as shard worker processes
	// over loopback TCP (internal/wirenet): every message crosses real
	// sockets between OS processes. Like TransportChan it has no
	// bandwidth model; unlike the in-process transports it holds OS
	// resources, so call Close when done. The spawning binary must call
	// wirenet.MaybeWorker first in main (see that package).
	TransportWire
)

func (k TransportKind) String() string {
	switch k {
	case TransportChan:
		return "chan"
	case TransportWire:
		return "wire"
	}
	return "sim"
}

// ParseTransport maps the command-line spellings ("sim", "chan",
// "wire") to a TransportKind.
func ParseTransport(s string) (TransportKind, error) {
	switch s {
	case "sim", "simnet":
		return TransportSim, nil
	case "chan", "channel", "channet":
		return TransportChan, nil
	case "wire", "wirenet", "tcp":
		return TransportWire, nil
	}
	return 0, fmt.Errorf("protocol: unknown transport %q (want sim, chan or wire)", s)
}

// Option configures a Network at construction time.
type Option func(*options)

type options struct {
	kind      TransportKind
	shards    int
	bandwidth int
	spread    *bool
	audit     *AuditConfig
	coalesce  *CoalesceConfig
	observer  func(Event)
}

// WithTransport selects the message-passing substrate (default
// TransportSim).
func WithTransport(kind TransportKind) Option {
	return func(o *options) { o.kind = kind }
}

// WithWireShards sets the worker process count for TransportWire
// (0 = the wirenet default). Ignored on other transports.
func WithWireShards(n int) Option {
	return func(o *options) { o.shards = n }
}

// WithBandwidth caps every edge at the given words per round, exactly
// like SetBandwidth — but applied before the first operation, so even
// the first repair runs congested. TransportSim only.
func WithBandwidth(words int) Option {
	return func(o *options) { o.bandwidth = words }
}

// WithSpread sets the sender-side pacing of leader instruction bursts
// (see SetSpread; default on).
func WithSpread(on bool) Option {
	return func(o *options) { o.spread = &on }
}

// WithAudit enables the background self-stabilizing audit layer from
// the start (see EnableAudit).
func WithAudit(cfg AuditConfig) Option {
	return func(o *options) { o.audit = &cfg }
}

// WithCoalescing enables the coalescing admission queue from the start
// (see SetCoalescing).
func WithCoalescing(cfg CoalesceConfig) Option {
	return func(o *options) { o.coalesce = &cfg }
}

// WithObserver streams completion events to fn from the first
// operation on (see SetObserver).
func WithObserver(fn func(Event)) Option {
	return func(o *options) { o.observer = fn }
}

// New builds the distributed network from an initial edge list. With
// no options it runs on the deterministic round-synchronous transport
// with default settings; options select the substrate and apply
// initial configuration in one place:
//
//	n, err := protocol.New(edges,
//	    protocol.WithTransport(protocol.TransportChan),
//	    protocol.WithAudit(protocol.AuditConfig{}))
func New(edges []Edge, opts ...Option) (*Network, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	g0 := graph.New()
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("protocol: self-loop on node %d", e.U)
		}
		g0.AddEdge(graph.NodeID(e.U), graph.NodeID(e.V))
	}
	var net transport.Transport
	switch o.kind {
	case TransportSim:
		net = simnet.New()
	case TransportChan:
		net = channet.New()
	case TransportWire:
		h, err := wirenet.New(wirenet.Config{Shards: o.shards})
		if err != nil {
			return nil, fmt.Errorf("protocol: wire transport: %w", err)
		}
		net = h
	default:
		return nil, fmt.Errorf("protocol: unknown transport kind %d", int(o.kind))
	}
	n := &Network{s: dist.NewSimulationOn(g0, net), kind: o.kind}
	if o.bandwidth > 0 {
		n.SetBandwidth(o.bandwidth)
	}
	if o.spread != nil {
		n.SetSpread(*o.spread)
	}
	if o.audit != nil {
		if err := n.EnableAudit(*o.audit); err != nil {
			n.Close()
			return nil, err
		}
	}
	if o.coalesce != nil {
		n.SetCoalescing(*o.coalesce)
	}
	if o.observer != nil {
		n.SetObserver(o.observer)
	}
	return n, nil
}

// Transport reports which substrate the network runs on.
func (n *Network) Transport() TransportKind { return n.kind }

// Close releases the transport's resources: worker processes and
// sockets on TransportWire, nothing on the in-process transports. The
// network must not be used afterwards.
func (n *Network) Close() error { return n.s.Close() }

// WorkerPIDs returns the OS process IDs of the transport's shard
// workers (TransportWire), or nil on the in-process transports.
func (n *Network) WorkerPIDs() []int { return n.s.WorkerPIDs() }

// SetBandwidth caps every network edge at the given number of
// message-words per round (0, the default, is unlimited — the paper's
// model). Excess traffic queues FIFO per edge and spills into later
// rounds: the healed graph and message counts are identical for every
// cap; only rounds and the congestion counters in the cost reports
// change. The congestion model is TransportSim-only: on TransportChan
// a positive cap panics.
func (n *Network) SetBandwidth(words int) { n.s.SetBandwidth(words) }

// SetEdgeBandwidth overrides the capacity of one directed edge,
// modeling heterogeneous links; words <= 0 clears the override.
func (n *Network) SetEdgeBandwidth(from, to NodeID, words int) {
	n.s.SetEdgeBandwidth(graph.NodeID(from), graph.NodeID(to), words)
}

// SetSpread toggles sender-side pacing of the repair leader's
// instruction bursts under a finite bandwidth (default on). Pacing
// shrinks the per-edge backlog without changing the healed graph; off
// reproduces the bursty hotspot for measurement.
func (n *Network) SetSpread(on bool) { n.s.SetSpread(on) }

// Insert adds a processor connected to the given live neighbors.
func (n *Network) Insert(v NodeID, nbrs []NodeID) error {
	conv := make([]graph.NodeID, len(nbrs))
	for i, x := range nbrs {
		conv[i] = graph.NodeID(x)
	}
	return n.s.Insert(graph.NodeID(v), conv)
}

// Delete removes a processor and runs the distributed repair to
// quiescence.
func (n *Network) Delete(v NodeID) error { return n.s.Delete(graph.NodeID(v)) }

// BatchCost reports the measured cost of one batched deletion.
type BatchCost struct {
	// Batch is the number of deletions; Groups how many independent
	// conflict groups they formed (repairs of distinct groups ran
	// concurrently); Waves the serialization depth; Conflicts the
	// number of member pairs whose repair footprints overlap.
	Batch     int
	Groups    int
	Waves     int
	Conflicts int
	// Messages and Rounds cover the whole batch.
	Messages int
	Rounds   int
	// ElectionRounds and SyncRounds expose the batch's in-band
	// coordination cost across all waves (see RepairCost).
	ElectionRounds int
	SyncRounds     int
	// QueuedWords, MaxEdgeBacklog and CongestionRounds report the
	// batch's congestion under a finite per-edge bandwidth.
	QueuedWords      int
	MaxEdgeBacklog   int
	CongestionRounds int
}

// DeleteBatch removes several processors at once, overlapping the
// repairs of independent damaged regions; repairs whose regions
// collide serialize automatically. The healed graph is identical to
// deleting the nodes one at a time in ascending order.
func (n *Network) DeleteBatch(vs []NodeID) error {
	conv := make([]graph.NodeID, len(vs))
	for i, v := range vs {
		conv[i] = graph.NodeID(v)
	}
	return n.s.DeleteBatch(conv)
}

// LastBatch returns the cost of the most recent DeleteBatch call.
func (n *Network) LastBatch() BatchCost { return convBatch(n.s.LastBatch()) }

// LastRepair returns the cost of the most recent blocking deletion's
// repair; repairs completing asynchronously report theirs in the
// RepairDone event.
func (n *Network) LastRepair() RepairCost { return convRecovery(n.s.LastRecovery()) }

func convBatch(b dist.BatchStats) BatchCost {
	return BatchCost{
		Batch: b.Batch, Groups: b.Groups, Waves: b.Waves,
		Conflicts: b.Conflicts, Messages: b.Messages, Rounds: b.Rounds,
		ElectionRounds:   b.ElectionRounds,
		SyncRounds:       b.SyncRounds,
		QueuedWords:      b.QueuedWords,
		MaxEdgeBacklog:   b.MaxEdgeBacklog,
		CongestionRounds: b.CongestionRounds,
	}
}

func convRecovery(r dist.RecoveryStats) RepairCost {
	return RepairCost{
		Deleted:          NodeID(r.Deleted),
		DegreePrime:      r.DegreePrime,
		Messages:         r.Messages,
		Rounds:           r.Rounds,
		TotalWords:       r.TotalWords,
		MaxWords:         r.MaxWords,
		MaxSentByNode:    r.MaxSentByNode,
		BTvSize:          r.NsetSize,
		QueuedWords:      r.QueuedWords,
		MaxEdgeBacklog:   r.MaxEdgeBacklog,
		CongestionRounds: r.CongestionRounds,
		ElectionRounds:   r.ElectionRounds,
		SyncRounds:       r.SyncRounds,
		ElectionMessages: r.ElectionMessages,
		SyncMessages:     r.SyncMessages,
	}
}

// Alive reports whether v is in the network.
func (n *Network) Alive(v NodeID) bool { return n.s.Alive(graph.NodeID(v)) }

// NumAlive returns the live processor count.
func (n *Network) NumAlive() int { return n.s.NumAlive() }

// Nodes returns the live processors in ascending order.
func (n *Network) Nodes() []NodeID {
	live := n.s.LiveNodes()
	out := make([]NodeID, len(live))
	for i, v := range live {
		out[i] = NodeID(v)
	}
	return out
}

// Edges returns the current actual network's edges.
func (n *Network) Edges() []Edge {
	es := n.s.Physical().Edges()
	out := make([]Edge, len(es))
	for i, e := range es {
		out[i] = Edge{U: NodeID(e.U), V: NodeID(e.V)}
	}
	return out
}

// Degree returns v's degree in the actual network.
func (n *Network) Degree(v NodeID) int {
	return n.s.Physical().Degree(graph.NodeID(v))
}

// Distance returns the hop distance between live processors in the
// actual network, or -1 if unreachable.
func (n *Network) Distance(u, v NodeID) int {
	return n.s.Physical().Distance(graph.NodeID(u), graph.NodeID(v))
}

// Verify revalidates the entire distributed state from scratch. It runs
// the per-processor record checker (record consistency, haft validity,
// representatives, the degree bound) over every processor, then the
// global-only checks: the physical graph against a from-scratch
// reconstruction, the connectivity certificate and degree tracker
// against their rebuilds, and connectivity equivalence with G′. A
// healthy network always returns nil.
func (n *Network) Verify() error { return n.s.Verify() }

// OpKind distinguishes the two churn operation flavors.
type OpKind uint8

const (
	// OpInsert adds a node attached to existing live neighbors.
	OpInsert OpKind = OpKind(dist.OpInsert)
	// OpDelete removes a node, triggering the distributed repair.
	OpDelete OpKind = OpKind(dist.OpDelete)
)

// Op is one churn operation for the asynchronous API.
type Op struct {
	Kind OpKind
	V    NodeID
	Nbrs []NodeID // OpInsert only
}

// Insert and Delete constructors for Op.
func InsertOp(v NodeID, nbrs ...NodeID) Op { return Op{Kind: OpInsert, V: v, Nbrs: nbrs} }
func DeleteOp(v NodeID) Op                 { return Op{Kind: OpDelete, V: v} }

// EventKind tags a completion event from the asynchronous engine.
type EventKind uint8

const (
	// EventRepairDone: a deletion's repair completed; Repair carries
	// its cost. Under overlapping repairs the additive fields are
	// deltas between launch and completion; the Max* fields are
	// high-water marks.
	EventRepairDone EventKind = EventKind(dist.EventRepairDone)
	// EventInsertApplied: a submitted insert was admitted and applied.
	EventInsertApplied EventKind = EventKind(dist.EventInsertApplied)
	// EventBatchDone: a DeleteBatch finished; Batch carries its cost.
	EventBatchDone EventKind = EventKind(dist.EventBatchDone)
	// EventOpRejected: a submitted operation failed validation at its
	// serialization point; Err carries the same error the blocking call
	// would have returned.
	EventOpRejected EventKind = EventKind(dist.EventOpRejected)
	// EventOpCancelled: under WithCoalescing, a submitted delete
	// annihilated with a still-pending insert of the same node; neither
	// op touched the network. One event fires per elided op, in
	// submission order, with Op carrying the elided operation.
	EventOpCancelled EventKind = EventKind(dist.EventOpCancelled)
)

// Event is one typed completion notification.
type Event struct {
	Kind EventKind
	// V is the node the event concerns.
	V NodeID
	// Op is the rejected or cancelled operation (EventOpRejected,
	// EventOpCancelled).
	Op Op
	// Repair is the completed repair's cost (EventRepairDone).
	Repair RepairCost
	// Batch is the completed batch's cost (EventBatchDone).
	Batch BatchCost
	// Latency is the number of rounds between submission and this
	// event.
	Latency int
	// Err is why the operation was rejected (EventOpRejected).
	Err error
}

// Submit enqueues operations for asynchronous execution; whatever the
// in-flight repairs allow is admitted immediately, the rest pipelines
// behind them in submission order. Structural validity is checked
// synchronously; state-dependent validity surfaces as EventOpRejected.
func (n *Network) Submit(ops ...Op) error {
	conv := make([]dist.Op, len(ops))
	for i, op := range ops {
		nbrs := make([]graph.NodeID, len(op.Nbrs))
		for j, x := range op.Nbrs {
			nbrs[j] = graph.NodeID(x)
		}
		conv[i] = dist.Op{Kind: dist.OpKind(op.Kind), V: graph.NodeID(op.V), Nbrs: nbrs}
	}
	return n.s.Submit(conv...)
}

// Tick advances the network one round, reporting whether work remains.
func (n *Network) Tick() bool { return n.s.Tick() }

// Run ticks until the engine is idle or maxRounds elapse, returning
// the rounds advanced.
func (n *Network) Run(maxRounds int) int { return n.s.Run(maxRounds) }

// Drain runs the engine to idleness; it fails only if the protocol
// stalls beyond its quiescence bound.
func (n *Network) Drain() error { return n.s.Drain() }

// Idle reports whether the engine has nothing left to do.
func (n *Network) Idle() bool { return n.s.Idle() }

// InFlight returns the number of repairs currently in progress.
func (n *Network) InFlight() int { return n.s.InFlight() }

// PendingOps returns the number of submitted operations not yet
// admitted.
func (n *Network) PendingOps() int { return n.s.PendingOps() }

// Poll returns the events accumulated since the last Poll and clears
// the buffer.
func (n *Network) Poll() []Event {
	evs := n.s.Poll()
	out := make([]Event, len(evs))
	for i, ev := range evs {
		out[i] = n.convEvent(ev)
	}
	return out
}

// SetObserver streams every event to fn as it fires, replacing the
// Poll buffer as the consumption path (stream-only consumers never
// grow it); nil returns to Poll-based consumption. Callbacks run at
// safe points, so an observer may reenter Submit.
func (n *Network) SetObserver(fn func(Event)) {
	if fn == nil {
		n.s.SetObserver(nil)
		return
	}
	n.s.SetObserver(func(ev dist.Event) { fn(n.convEvent(ev)) })
}

// CoalesceConfig tunes the coalescing admission queue (see
// SetCoalescing). Zero fields select the defaults.
type CoalesceConfig struct {
	// Window is the number of engine Ticks a submitted operation is
	// held before it may launch, giving later submissions the chance to
	// cancel or merge with it (0 = no hold).
	Window int
	// MaxHeld caps simultaneously held operations; when reached every
	// hold flushes at once (<= 0 = default 64).
	MaxHeld int
}

// CoalesceStats reports the coalescing queue's cumulative counters.
type CoalesceStats struct {
	// Submitted counts ops submitted while coalescing was on; Cancelled
	// the ops elided by insert/delete annihilation (two per pair);
	// Merged the deletes chained behind an overlapping pending delete
	// (launched with a pre-appointed leader, skipping the election);
	// Admitted the ops that reached execution.
	Submitted, Cancelled, Merged, Admitted int
	// MessagesSaved is the number of protocol messages provably avoided
	// — a static floor: the skipped elections of merged launches and the
	// notifications plus election of each cancelled pair's repair. The
	// dynamic savings (walks, probes, strip traffic) are measured by the
	// EXP-COALESCE experiment, not counted here.
	MessagesSaved int
}

// SetCoalescing enables the coalescing admission queue for subsequent
// Submit calls: pending insert/delete pairs on the same node annihilate
// (EventOpCancelled), overlapping pending deletions merge into chained
// repair waves with pre-appointed leaders, and each submitted op is
// held Window ticks so later submissions can coalesce with it.
// Operations still behave as if executed serially in submission order
// with the cancelled pairs removed; the healed graph is bit-identical
// to that replay on every transport. Blocking calls are never
// coalesced. Enabling is one-way for the life of the network.
func (n *Network) SetCoalescing(cfg CoalesceConfig) {
	n.s.SetCoalescing(dist.CoalesceConfig{Window: cfg.Window, MaxHeld: cfg.MaxHeld})
}

// CoalesceStats returns the coalescing queue's counters so far.
func (n *Network) CoalesceStats() CoalesceStats {
	st := n.s.CoalesceStats()
	return CoalesceStats{
		Submitted: st.Submitted, Cancelled: st.Cancelled, Merged: st.Merged,
		Admitted: st.Admitted, MessagesSaved: st.MessagesSaved,
	}
}

// AuditConfig tunes the background self-stabilizing audit layer (see
// EnableAudit). Zero fields select the defaults.
type AuditConfig struct {
	// Period is the audit pulse interval in rounds: every Period rounds
	// each processor examines a slice of its own records against its
	// tree neighbors.
	Period int
	// Batch is how many records one pulse examines per processor
	// (round-robin over the rest); larger batches converge faster at
	// more audit traffic per pulse.
	Batch int
}

// AuditStats reports the audit layer's cumulative counters.
type AuditStats struct {
	// Passes counts audit pulses handled, Probes the checksum probes
	// and claims sent, Mismatches the invariant violations detected,
	// Repairs the state corrections applied, and Deferred the
	// examinations skipped because a live repair owned the state.
	Passes, Probes, Mismatches, Repairs, Deferred int
	// Messages and Rounds are the transport-level audit traffic since
	// the last stats reset: delivered audit-class messages and the
	// pulses that carried at least one.
	Messages, Rounds int
}

// EnableAudit switches on the background audit layer: processors
// periodically exchange O(1)-word checksum probes with their
// Reconstruction Tree neighbors, detect silently corrupted state
// (Corrupt's fault modes, or any transient fault with the same
// footprint), and repair it in-band. Off by default; enabling is
// one-way for the life of the network.
func (n *Network) EnableAudit(cfg AuditConfig) error {
	return n.s.EnableAudit(audit.Config{Period: cfg.Period, Batch: cfg.Batch})
}

// AuditEnabled reports whether the audit layer is on.
func (n *Network) AuditEnabled() bool { return n.s.AuditEnabled() }

// AuditStats returns the audit layer's counters so far.
func (n *Network) AuditStats() AuditStats {
	st := n.s.AuditStats()
	msgs, rounds := n.s.AuditTraffic()
	return AuditStats{
		Passes: st.Passes, Probes: st.Probes, Mismatches: st.Mismatches,
		Repairs: st.Repairs, Deferred: st.Deferred,
		Messages: msgs, Rounds: rounds,
	}
}

// CorruptMode selects what kind of processor state Corrupt perturbs.
type CorruptMode int

const (
	// CorruptLeafCount inflates a helper's stored leaf count.
	CorruptLeafCount CorruptMode = CorruptMode(dist.CorruptLeafCount)
	// CorruptHeight inflates a helper's stored height.
	CorruptHeight CorruptMode = CorruptMode(dist.CorruptHeight)
	// CorruptRep misdirects a helper's representative.
	CorruptRep CorruptMode = CorruptMode(dist.CorruptRep)
	// CorruptDroppedParent clears a record's parent pointer.
	CorruptDroppedParent CorruptMode = CorruptMode(dist.CorruptDroppedParent)
	// CorruptDanglingParent points a parent pointer at a record that
	// does not exist.
	CorruptDanglingParent CorruptMode = CorruptMode(dist.CorruptDanglingParent)
	// CorruptChildPtr points one child side of a helper at a
	// nonexistent record.
	CorruptChildPtr CorruptMode = CorruptMode(dist.CorruptChildPtr)
	// CorruptDamageFlag raises a stale repair damage flag.
	CorruptDamageFlag CorruptMode = CorruptMode(dist.CorruptDamageFlag)
	// CorruptStaleEpoch plants repair scratch for a finished epoch.
	CorruptStaleEpoch CorruptMode = CorruptMode(dist.CorruptStaleEpoch)
	// CorruptFootprint plants a phantom in-flight repair footprint in
	// the open-loop engine.
	CorruptFootprint CorruptMode = CorruptMode(dist.CorruptFootprint)
	// CorruptClock skews one processor's logical clock far negative
	// (TransportChan only; unsupported on TransportSim).
	CorruptClock CorruptMode = CorruptMode(dist.CorruptClock)
)

// CorruptModes lists every corruption mode, for sweeps.
func CorruptModes() []CorruptMode {
	out := make([]CorruptMode, len(dist.CorruptModes))
	for i, m := range dist.CorruptModes {
		out[i] = CorruptMode(m)
	}
	return out
}

func (m CorruptMode) String() string { return dist.CorruptMode(m).String() }

// CorruptReport describes one injected fault.
type CorruptReport struct {
	Mode   CorruptMode
	Victim NodeID
	Detail string
}

// Corrupt silently injects one transient fault of the given mode,
// driven by rng: the perturbation updates no bookkeeping, so nothing
// notices until a full Verify or the audit layer looks. It reports
// false when the mode has no viable target in the current state — a
// no-op, not an error.
func (n *Network) Corrupt(mode CorruptMode, rng *rand.Rand) (CorruptReport, bool) {
	r, ok := n.s.Corrupt(dist.CorruptMode(mode), rng)
	return CorruptReport{Mode: CorruptMode(r.Mode), Victim: NodeID(r.Victim), Detail: r.Detail}, ok
}

func (n *Network) convEvent(ev dist.Event) Event {
	out := Event{
		Kind:    EventKind(ev.Kind),
		V:       NodeID(ev.V),
		Latency: ev.Latency,
		Err:     ev.Err,
	}
	switch ev.Kind {
	case dist.EventRepairDone:
		out.Repair = convRecovery(ev.Repair)
	case dist.EventBatchDone:
		out.Batch = convBatch(ev.Batch)
	case dist.EventOpRejected, dist.EventOpCancelled:
		nbrs := make([]NodeID, len(ev.Op.Nbrs))
		for i, x := range ev.Op.Nbrs {
			nbrs[i] = NodeID(x)
		}
		out.Op = Op{Kind: OpKind(ev.Op.Kind), V: NodeID(ev.Op.V), Nbrs: nbrs}
	}
	return out
}
