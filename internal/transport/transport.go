// Package transport defines the message-passing substrate the
// distributed Forgiving Graph protocol runs on, abstracted away from
// any particular scheduler.
//
// The protocol (internal/dist) is self-synchronizing: every phase of a
// repair proves its own termination in-band by message counting, so the
// only services a processor needs from the network are
//
//   - Send: asynchronous reliable FIFO-per-edge unicast, and
//   - SendTimer: a local wake-up after a delay measured on a clock that
//     advances at least as fast as message delivery.
//
// Everything else — global rounds, bandwidth caps, congestion — is a
// property of one particular implementation, not of the protocol.
// Package simnet implements Transport as a deterministic synchronous-
// round simulator (the measurement oracle); package channet implements
// it with one goroutine per processor over Go channels and per-
// processor logical clocks (the real-concurrency adversarial
// scheduler). The differential tests in internal/dist assert that the
// two backends heal bit-identically on the same op schedule.
//
// # Contract
//
// An implementation must provide, per directed edge, reliable exactly-
// once FIFO delivery: two messages sent X→Y are handed to Y's handler
// in send order. No ordering is promised across different edges.
// Messages to unregistered (dead) processors are dropped at delivery
// time and counted by Dropped. Handlers run one-at-a-time per
// processor, and only ever touch their own processor's state, so an
// implementation is free to run different processors' handlers
// concurrently.
//
// Timers scheduled by SendTimer fire no earlier than `delay` ticks of
// the owning processor's clock. In simnet that clock is the global
// round counter; in channet it is a per-processor Lamport clock that
// advances on every message the processor receives. The protocol uses
// timers only to *initiate* checks (watchdogs, repair kickoff) — never
// to conclude that something did NOT happen — so slower clocks are
// always safe, merely slower.
//
// # Two planes
//
// The driver surface is split in two. The data plane (Plane) is what
// handlers and lifecycle management see: Send/SendTimer, node
// add/remove, introspection, bandwidth. The control plane is how
// delivery is driven, and it comes in two flavors: synchronous
// backends implement Transport (Plane + Step, the frozen-world pulse
// contract), while asynchronous backends — where traffic moves on real
// links and no global freeze exists — implement Driver (Plane + Drive
// + quiescence notifications + safe-point requests, see driver.go).
// NewDriver adapts any Transport into a Driver, so the dist driver
// loop speaks only the async contract and the entire existing
// simnet/channet test suite runs unmodified behind the shim.
package transport

import "repro/internal/graph"

// NodeID identifies a processor, shared with package graph.
type NodeID = graph.NodeID

// Class tags a message with its role in the protocol, so the cost of
// coordination — leader election and termination detection — is
// accounted separately from the repair payload it synchronizes. All
// classes are real network traffic and count fully toward Messages and
// TotalWords; the class only drives the ElectionRounds/SyncRounds
// breakdown in Stats.
type Class uint8

const (
	// ClassData is ordinary protocol traffic (the default).
	ClassData Class = iota
	// ClassElection marks leader-election tournament messages.
	ClassElection
	// ClassSync marks termination-detection traffic: walk acks,
	// convergecast dones, and phase-completion reports.
	ClassSync
	// ClassAudit marks the self-stabilizing audit layer's background
	// traffic: checksum probes, claim checks, and their replies. Audit
	// traffic is charged like everything else; the class exists so the
	// clean-run audit tax is measurable (and CI-gated) separately.
	ClassAudit
)

// Message is a unit of communication between two processors.
type Message struct {
	From, To NodeID
	// Payload is the protocol-level content.
	Payload any
	// Words is the message size in words of O(log n) bits, the unit
	// Lemma 4 counts. Timers have Words == 0 and are excluded from the
	// traffic statistics.
	Words int
	// Class is the accounting category (see Class).
	Class Class
	// Timer marks a local wake-up rather than a network message.
	Timer bool
	// Seq is the implementation's send sequence number; it breaks ties
	// deterministically when an implementation needs a total delivery
	// order. Handlers must not interpret it.
	Seq int
}

// Handler is the per-processor message handler. It may call Send,
// SendClass, SendTimer and the read-only accessors on the Endpoint it
// is passed, but must not call Step, and must touch only its own
// processor's state (plus explicitly synchronized driver structures).
type Handler func(n Endpoint, msg Message)

// Stats aggregates traffic since the last ResetStats. Congestion
// counters (QueuedWords, MaxEdgeBacklog, CongestionRounds) are only
// meaningful on backends with a bandwidth model and stay zero
// elsewhere.
type Stats struct {
	// Messages is the number of network messages delivered.
	Messages int
	// Rounds is the number of Step pulses in which at least one message
	// or timer was delivered.
	Rounds int
	// TotalWords sums the sizes of all delivered network messages.
	TotalWords int
	// MaxWords is the largest single message size seen.
	MaxWords int
	// MaxSentByNode is the largest number of messages sent by a single
	// processor (the paper's "communication per node" metric counts
	// bits; multiply by MaxWords for a bound).
	MaxSentByNode int
	// QueuedWords accumulates, per round, the words deferred by the
	// per-edge bandwidth limit; a message stuck behind a full edge for
	// k rounds contributes k times its size, so the counter weights
	// backlog by how long it lingered.
	QueuedWords int
	// MaxEdgeBacklog is the largest number of words left queued on a
	// single edge at any round boundary — the hotspot depth.
	MaxEdgeBacklog int
	// CongestionRounds counts rounds in which at least one message was
	// deferred for lack of bandwidth.
	CongestionRounds int
	// ElectionMessages and SyncMessages split the Messages total by
	// class: leader-election tournament traffic and termination-
	// detection traffic (walk acks, convergecast dones). Both are
	// included in Messages/TotalWords — coordination is not free.
	ElectionMessages int
	SyncMessages     int
	// ElectionRounds and SyncRounds count pulses in which at least one
	// message of the respective class was delivered. A pulse carrying
	// both classes counts in both.
	ElectionRounds int
	SyncRounds     int
	// AuditMessages counts delivered background-audit messages
	// (ClassAudit), and AuditRounds the pulses that carried at least one
	// of them — the standing cost of the self-stabilizing audit layer.
	AuditMessages int
	AuditRounds   int
}

// Endpoint is the narrow interface handlers (and the driver's message-
// injection paths) use to originate traffic. Both Transport
// implementations and simnet's per-round shadow networks satisfy it.
type Endpoint interface {
	// Send enqueues a message for asynchronous delivery. Words must
	// reflect the payload size in O(log n)-bit words and be at least 1.
	Send(from, to NodeID, payload any, words int)
	// SendClass is Send with an explicit accounting class.
	SendClass(from, to NodeID, payload any, words int, class Class)
	// SendTimer schedules a local wake-up for the sending processor
	// after delay ticks of its clock (delay >= 1). Timers do not count
	// as network traffic.
	SendTimer(node NodeID, payload any, delay int)
	// EdgeBudget returns the effective words-per-delivery-opportunity
	// cap of one directed edge, 0 meaning unlimited. Sender-side pacing
	// consults it; backends without a bandwidth model return 0.
	EdgeBudget(from, to NodeID) int
	// Round returns a monotone pulse counter: the number of Step calls
	// on simnet, the macro-pulse count on channet. Only differences are
	// meaningful, and only for coarse latency accounting.
	Round() int
}

// Plane is the data-plane surface of a substrate: everything a driver
// needs except pulse scheduling. It is the part of the contract shared
// by the synchronous in-process backends (simnet, channet) and the
// asynchronous wire backend — Endpoint plus processor lifecycle,
// introspection, and the (optional) bandwidth model. How delivery is
// *driven* is deliberately absent: synchronous backends add Step
// (Transport), asynchronous ones add the control plane (Driver).
type Plane interface {
	Endpoint

	// AddNode registers a processor. Re-registering replaces the
	// handler. Must only be called between Steps.
	AddNode(id NodeID, h Handler)
	// RemoveNode unregisters a processor (the node is dead). Every
	// message addressed to it — already queued or sent later — is
	// dropped and counted by Dropped at the earliest point the backend
	// knows the target is dead: at RemoveNode for messages already
	// queued, at send time afterwards. The dead node's armed timers are
	// discarded without being counted: timers are local wake-ups, not
	// network traffic. Must only be called between Steps.
	RemoveNode(id NodeID)
	// HasNode reports whether a processor is registered.
	HasNode(id NodeID) bool

	// Pending reports how many messages and timers are waiting for
	// delivery.
	Pending() int
	// PendingWords sums the sizes of all waiting network messages
	// (timers are free and count 0).
	PendingWords() int
	// Dropped returns the number of messages addressed to dead
	// processors.
	Dropped() int

	// Stats returns a copy of the traffic statistics accumulated since
	// the last ResetStats.
	Stats() Stats
	// ResetStats zeroes the traffic statistics.
	ResetStats()

	// SetBandwidth caps every edge at the given number of message-words
	// per delivery opportunity; 0 restores unlimited delivery. Backends
	// without a bandwidth model accept only 0 and panic otherwise —
	// congestion experiments are simnet-only (see EXPERIMENTS.md).
	SetBandwidth(words int)
	// SetEdgeBandwidth overrides the capacity of one directed edge;
	// words <= 0 removes the override.
	SetEdgeBandwidth(from, to NodeID, words int)
	// SetNodeBandwidth caps every link incident to one node; words <= 0
	// removes the cap.
	SetNodeBandwidth(id NodeID, words int)
	// Bandwidth returns the global per-edge cap (0 = unlimited).
	Bandwidth() int
}

// Transport is a synchronous substrate: a Plane driven in frozen-world
// pulses. Between two Step calls no handler is running and no handler
// will run, so the driver may freely inspect processor state, add or
// remove nodes, and inject messages. How much work one Step performs
// is implementation-defined (simnet: exactly one synchronous round;
// channet: all currently deliverable traffic plus at most one timer
// epoch); drivers must only rely on "repeated Step eventually drains
// Pending".
type Transport interface {
	Plane

	// Step delivers some implementation-defined, nonempty-if-possible
	// amount of pending traffic and returns the number of deliveries
	// performed. Repeatedly calling Step drains Pending to zero in
	// finite pulses for any terminating protocol.
	Step() int
}

// ParallelStepper is implemented by transports that offer an
// observationally-identical concurrent variant of Step (simnet's
// shadow-network ParallelStep). The dist driver type-asserts for it
// when parallel mode is requested.
type ParallelStepper interface {
	ParallelStep() int
}
