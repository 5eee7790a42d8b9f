// Package channet implements transport.Transport with one goroutine
// per processor communicating over in-process queues — the
// real-concurrency backend of the distributed Forgiving Graph.
//
// Where simnet delivers in deterministic lock-step rounds, channet
// hands each processor's inbox to its own goroutine and lets the Go
// scheduler interleave deliveries arbitrarily. The protocol must not
// care: repairs prove their own termination in-band by message
// counting, so any fair scheduler heals the same graph. The
// differential tests in internal/dist assert exactly that, using
// simnet as the oracle. Under `go test -race` the backend doubles as a
// data-race detector for the protocol's handler state.
//
// # Pulses
//
// Step runs one macro-pulse: it thaws the network, delivers queued
// messages (concurrently, cascades included) until no message is in
// flight anywhere, then freezes again. Between Steps nothing runs, so
// the driver may inspect processor state, add and remove nodes, and
// inject traffic — the same contract simnet's round boundary gives.
//
// # Logical clocks and timers
//
// There is no global round counter, so the watchdogs' "wake me in k
// rounds" becomes "wake me after k ticks of my own clock": every
// processor keeps a Lamport clock that advances on each delivery
// (clock = max(clock, sender's clock at send) + 1), and SendTimer
// arms at due = clock + delay. A pending timer fires only when a Step
// begins with no deliverable messages: the earliest-due batch fires
// (ties across processors fire together, ordered by (due, owner,
// seq)), and the resulting message cascade drains before the pulse
// ends. Firing timers only at message-idle cannot livelock — a
// re-armed watchdog's due strictly increases, so any fixed-due timer
// (a repair kickoff, say) eventually becomes the minimum — and it is
// always safe, because the protocol uses timers to initiate progress
// checks, never to conclude absence of traffic.
//
// # Determinism and replay
//
// In the default concurrent mode the interleaving is whatever the Go
// scheduler produces — an adversarial schedule, intentionally not
// reproducible. NewSeeded selects a single-threaded deterministic mode
// instead: a PRNG picks which processor's inbox head to deliver next,
// so a (seed, op schedule) pair identifies one exact interleaving.
// The fuzz harness explores interleavings this way and replays any
// failure bit-for-bit; internal/sched records (seed, schedule) pairs
// and re-runs them on simnet for differential comparison.
//
// # No bandwidth model
//
// Congestion is a property of the synchronous simulator, not of this
// backend: EdgeBudget is always 0 (sender-side pacing degenerates to
// plain sends) and the SetBandwidth family panics on a positive cap.
// Bandwidth and congestion experiments are simnet-only; see
// EXPERIMENTS.md.
package channet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/transport"
)

// NodeID identifies a processor, shared with package transport.
type NodeID = transport.NodeID

// maxPulseDeliveries bounds one Step's work: a pulse that delivers
// this many messages is a protocol livelock, and panicking with a
// diagnostic beats hanging the test binary.
const maxPulseDeliveries = 1 << 22

var _ transport.Transport = (*Network)(nil)

// entry is one queued delivery: the message plus the logical send
// time stamping the receiver's clock (for timers, the due tick).
type entry struct {
	msg transport.Message
	at  int64
}

// node is one processor: its handler, inbox, and logical clock.
type node struct {
	id NodeID
	h  transport.Handler

	mu    sync.Mutex
	inbox []entry
	clock int64

	// wake nudges the node's runner goroutine during a concurrent
	// pulse; buffered so a send never blocks and a nudge is never lost.
	wake chan struct{}
}

// take pops the inbox head, advancing the clock Lamport-style.
func (nd *node) take() (entry, bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if len(nd.inbox) == 0 {
		return entry{}, false
	}
	e := nd.inbox[0]
	nd.inbox = nd.inbox[1:]
	if e.at > nd.clock {
		nd.clock = e.at
	}
	nd.clock++
	return e, true
}

// timerRec is an armed logical-clock timer.
type timerRec struct {
	owner NodeID
	due   int64
	seq   int
	msg   transport.Message
}

// Network is a set of processors exchanging messages over in-process
// queues. The zero value is not usable; construct with New or
// NewSeeded. Driver-facing methods (Step, AddNode, Pending, ...) must
// only be called between Steps; handler-facing methods (Send,
// SendTimer, ...) are safe from any handler goroutine mid-pulse.
type Network struct {
	// nodes is written only while frozen; handlers read it
	// concurrently during a pulse (lookups for sends), which is safe
	// because no writer can run then.
	nodes map[NodeID]*node

	// order caches the sorted node IDs for the seeded scheduler's
	// deterministic inbox scan; rebuilt lazily after AddNode/RemoveNode.
	order      []NodeID
	orderDirty bool

	// inflight counts queued-but-undelivered messages plus handlers
	// still running; zero means the pulse is message-idle (a handler
	// is decremented only after it returns, so zero proves no further
	// send can occur).
	inflight atomic.Int64

	// pulse is the macro-pulse counter Round() exposes; atomic because
	// handlers may read it mid-pulse.
	pulse atomic.Int64

	// seq tickets every send for deterministic tie-breaking.
	seq atomic.Int64

	// timersMu guards the armed-timer list (handlers arm concurrently).
	timersMu sync.Mutex
	timers   []timerRec

	// statsMu guards the traffic counters below.
	statsMu     sync.Mutex
	stats       transport.Stats
	sentBy      map[NodeID]int
	dropped     int
	sawElection bool // classes seen this pulse, folded into
	sawSync     bool // ElectionRounds/SyncRounds at pulse end
	sawAudit    bool // ... and AuditRounds

	// rng, when non-nil, selects the single-threaded deterministic
	// scheduler: it picks which nonempty inbox delivers next.
	rng *rand.Rand
}

// New returns an empty network in concurrent mode: during each Step
// every processor's inbox is drained by its own goroutine and the Go
// scheduler chooses the interleaving.
func New() *Network {
	return &Network{
		nodes:  make(map[NodeID]*node),
		sentBy: make(map[NodeID]int),
	}
}

// NewSeeded returns an empty network in deterministic mode: a single
// goroutine delivers one message at a time, a PRNG seeded with seed
// picking the next processor. The same seed and send sequence replay
// the exact same interleaving — the property the fuzz harness and the
// recorded-schedule replay layer build on.
func NewSeeded(seed int64) *Network {
	n := New()
	n.rng = rand.New(rand.NewSource(seed))
	return n
}

// Seeded reports whether the network uses the deterministic
// single-threaded scheduler.
func (n *Network) Seeded() bool { return n.rng != nil }

// AddNode registers a processor. Re-registering replaces the handler.
func (n *Network) AddNode(id NodeID, h transport.Handler) {
	if h == nil {
		panic("channet: nil handler")
	}
	if nd, ok := n.nodes[id]; ok {
		nd.h = h
		return
	}
	n.nodes[id] = &node{id: id, h: h, wake: make(chan struct{}, 1)}
	n.orderDirty = true
}

// RemoveNode unregisters a processor. Its queued messages are dropped
// eagerly and count toward Dropped — the single counting point the
// Plane contract defines (earliest moment the backend knows the target
// is dead; simnet and wirenet do the same); its armed timers are
// discarded but NOT counted — timers are local wake-ups, not network
// traffic. Later sends to the dead node drop and count at send.
func (n *Network) RemoveNode(id NodeID) {
	nd, ok := n.nodes[id]
	if !ok {
		return
	}
	delete(n.nodes, id)
	n.orderDirty = true
	if k := len(nd.inbox); k > 0 {
		n.inflight.Add(int64(-k))
		n.statsMu.Lock()
		n.dropped += k
		n.statsMu.Unlock()
		nd.inbox = nil
	}
	n.timersMu.Lock()
	kept := n.timers[:0]
	for _, t := range n.timers {
		if t.owner != id {
			kept = append(kept, t)
		}
	}
	n.timers = kept
	n.timersMu.Unlock()
}

// HasNode reports whether a processor is registered.
func (n *Network) HasNode(id NodeID) bool {
	_, ok := n.nodes[id]
	return ok
}

// CancelTimers discards every armed timer owned by one processor,
// returning how many were cancelled. RemoveNode already purges the
// dead node's timers; this is the standalone form drivers with
// standing per-node timers (the audit layer) use when they need the
// same effect without unregistering. Must only be called between
// Steps.
func (n *Network) CancelTimers(id NodeID) int {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	cancelled := 0
	kept := n.timers[:0]
	for _, t := range n.timers {
		if t.owner == id {
			cancelled++
			continue
		}
		kept = append(kept, t)
	}
	n.timers = kept
	return cancelled
}

// SkewClock perturbs one processor's logical clock by delta — a fault-
// injection hook for the self-stabilization tests (a corrupted clock
// models a processor rebooting with garbage local time). The Lamport
// max-merge on every delivery means a skewed-back clock heals from any
// incoming message and a negative stamp never spreads: receivers only
// ever take the max. Must only be called between Steps.
func (n *Network) SkewClock(id NodeID, delta int64) {
	nd, ok := n.nodes[id]
	if !ok {
		return
	}
	nd.mu.Lock()
	nd.clock += delta
	nd.mu.Unlock()
}

// Validate checks the backend's own state invariants: every logical
// clock non-negative and every armed timer owned by a registered
// processor. The dist verifier type-asserts for it, so transport-level
// corruption (SkewClock) is caught by the same Verify that audits
// protocol state. Must only be called between Steps.
func (n *Network) Validate() error {
	for _, id := range n.sortedIDs() {
		nd := n.nodes[id]
		nd.mu.Lock()
		c := nd.clock
		nd.mu.Unlock()
		if c < 0 {
			return fmt.Errorf("channet: processor %d has negative logical clock %d", id, c)
		}
	}
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	for _, t := range n.timers {
		if _, ok := n.nodes[t.owner]; !ok {
			return fmt.Errorf("channet: armed timer owned by unregistered processor %d", t.owner)
		}
	}
	return nil
}

// Round returns the macro-pulse counter: how many Steps have run.
func (n *Network) Round() int { return int(n.pulse.Load()) }

// Send enqueues a message for asynchronous delivery during the next
// (or current) pulse. Words must be at least 1.
func (n *Network) Send(from, to NodeID, payload any, words int) {
	n.SendClass(from, to, payload, words, transport.ClassData)
}

// SendClass is Send with an explicit accounting class.
func (n *Network) SendClass(from, to NodeID, payload any, words int, class transport.Class) {
	if words < 1 {
		panic(fmt.Sprintf("channet: message with %d words", words))
	}
	m := transport.Message{
		From: from, To: to, Payload: payload, Words: words, Class: class,
		Seq: int(n.seq.Add(1)),
	}
	n.deliverTo(to, entry{msg: m, at: n.clockOf(from)})
}

// SendTimer arms a local wake-up for the sending processor after
// delay ticks of its logical clock (delay >= 1).
func (n *Network) SendTimer(owner NodeID, payload any, delay int) {
	if delay < 1 {
		panic(fmt.Sprintf("channet: timer with delay %d", delay))
	}
	m := transport.Message{
		From: owner, To: owner, Payload: payload, Timer: true,
		Seq: int(n.seq.Add(1)),
	}
	t := timerRec{owner: owner, due: n.clockOf(owner) + int64(delay), seq: m.Seq, msg: m}
	n.timersMu.Lock()
	n.timers = append(n.timers, t)
	n.timersMu.Unlock()
}

// clockOf reads a processor's logical clock; unknown (dead) senders
// stamp 0, which is always safe — receivers only take the max.
func (n *Network) clockOf(id NodeID) int64 {
	nd, ok := n.nodes[id]
	if !ok {
		return 0
	}
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.clock
}

// deliverTo queues one entry, or drops it if the target is dead.
func (n *Network) deliverTo(to NodeID, e entry) {
	nd, ok := n.nodes[to]
	if !ok {
		n.statsMu.Lock()
		n.dropped++
		n.statsMu.Unlock()
		return
	}
	// Count the message in flight BEFORE it becomes visible in the
	// inbox. The other order is a pulse-termination race: a receiver
	// could pop, handle, and decrement the entry before this increment
	// runs, transiently driving inflight to 0 while the sending handler
	// is still live — drainConcurrent would close `done` and end the
	// pulse with deliverable messages stranded. Incrementing first
	// keeps inflight >= the true count at all times (the sender's own
	// +1 is held until its handler returns), so zero really does prove
	// no further send can occur.
	n.inflight.Add(1)
	nd.mu.Lock()
	nd.inbox = append(nd.inbox, e)
	nd.mu.Unlock()
	// Nudge the node's runner if a concurrent pulse is underway; the
	// buffered channel makes this a no-op when a nudge is already
	// pending or nobody is listening.
	select {
	case nd.wake <- struct{}{}:
	default:
	}
}

// EdgeBudget is always 0: channet has no bandwidth model, so
// sender-side pacing degenerates to plain sends.
func (n *Network) EdgeBudget(from, to NodeID) int { return 0 }

// Bandwidth returns 0: unlimited, always.
func (n *Network) Bandwidth() int { return 0 }

// SetBandwidth accepts only 0. Congestion modeling is simnet-only;
// asking this backend to cap an edge is a configuration error, not
// something to silently ignore.
func (n *Network) SetBandwidth(words int) {
	if words != 0 {
		panic("channet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// SetEdgeBandwidth accepts only non-positive words (cap removal).
func (n *Network) SetEdgeBandwidth(from, to NodeID, words int) {
	if words > 0 {
		panic("channet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// SetNodeBandwidth accepts only non-positive words (cap removal).
func (n *Network) SetNodeBandwidth(id NodeID, words int) {
	if words > 0 {
		panic("channet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// Step runs one macro-pulse: deliver every queued message (cascades
// included) until nothing is in flight; if that found no messages at
// all and timers are armed, fire the earliest-due timer batch and
// drain its cascade the same way. Returns the number of deliveries.
func (n *Network) Step() int {
	n.pulse.Add(1)
	delivered := n.drain()
	if delivered == 0 {
		if fired := n.fireEarliest(); fired > 0 {
			delivered = fired + n.drain()
		}
	}
	n.statsMu.Lock()
	if delivered > 0 {
		n.stats.Rounds++
		if n.sawElection {
			n.stats.ElectionRounds++
		}
		if n.sawSync {
			n.stats.SyncRounds++
		}
		if n.sawAudit {
			n.stats.AuditRounds++
		}
	}
	n.sawElection, n.sawSync, n.sawAudit = false, false, false
	n.statsMu.Unlock()
	return delivered
}

// drain delivers queued messages until none are in flight, using the
// scheduler the network was built with.
func (n *Network) drain() int {
	if n.rng != nil {
		return n.drainSeeded()
	}
	return n.drainConcurrent()
}

// drainConcurrent thaws the network: one runner goroutine per
// processor races over the inboxes until the in-flight count hits
// zero, then everything refreezes before returning.
func (n *Network) drainConcurrent() int {
	if n.inflight.Load() == 0 {
		return 0
	}
	done := make(chan struct{})
	var once sync.Once
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for _, nd := range n.nodes {
		wg.Add(1)
		go func(nd *node) {
			defer wg.Done()
			for {
				e, ok := nd.take()
				if !ok {
					select {
					case <-nd.wake:
						continue
					case <-done:
						return
					}
				}
				if d := delivered.Add(1); d > maxPulseDeliveries {
					panic("channet: runaway pulse (protocol livelock?)")
				}
				n.book(e.msg)
				nd.h(n, e.msg)
				if n.inflight.Add(-1) == 0 {
					once.Do(func() { close(done) })
				}
			}
		}(nd)
	}
	wg.Wait()
	// Drain any stale nudges so the next pulse starts clean.
	for _, nd := range n.nodes {
		select {
		case <-nd.wake:
		default:
		}
	}
	return int(delivered.Load())
}

// drainSeeded delivers one message at a time on the calling
// goroutine, the PRNG choosing uniformly among processors with
// nonempty inboxes. Identical seeds and send sequences replay
// identical interleavings.
func (n *Network) drainSeeded() int {
	delivered := 0
	var ready []*node
	for n.inflight.Load() > 0 {
		ready = ready[:0]
		for _, id := range n.sortedIDs() {
			nd := n.nodes[id]
			if len(nd.inbox) > 0 {
				ready = append(ready, nd)
			}
		}
		nd := ready[n.rng.Intn(len(ready))]
		e, _ := nd.take()
		delivered++
		if delivered > maxPulseDeliveries {
			panic("channet: runaway pulse (protocol livelock?)")
		}
		n.book(e.msg)
		nd.h(n, e.msg)
		n.inflight.Add(-1)
	}
	return delivered
}

// sortedIDs returns the registered processors in ascending ID order.
func (n *Network) sortedIDs() []NodeID {
	if n.orderDirty {
		n.order = n.order[:0]
		for id := range n.nodes {
			n.order = append(n.order, id)
		}
		sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
		n.orderDirty = false
	}
	return n.order
}

// fireEarliest moves the earliest-due timer batch (all timers tied at
// the minimum due) into their owners' inboxes, ordered by (due,
// owner, seq), and returns how many fired. Delivery stamps the
// owner's clock to at least the due tick, so re-armed timers march
// strictly forward.
func (n *Network) fireEarliest() int {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	if len(n.timers) == 0 {
		return 0
	}
	min := n.timers[0].due
	for _, t := range n.timers[1:] {
		if t.due < min {
			min = t.due
		}
	}
	var batch []timerRec
	kept := n.timers[:0]
	for _, t := range n.timers {
		if t.due == min {
			batch = append(batch, t)
		} else {
			kept = append(kept, t)
		}
	}
	n.timers = kept
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].owner != batch[j].owner {
			return batch[i].owner < batch[j].owner
		}
		return batch[i].seq < batch[j].seq
	})
	fired := 0
	for _, t := range batch {
		// due-1: take() adds the +1 tick on delivery.
		n.deliverTo(t.owner, entry{msg: t.msg, at: t.due - 1})
		fired++
	}
	return fired
}

// book folds one delivered network message into the stats; timers are
// local wake-ups and aren't traffic.
func (n *Network) book(m transport.Message) {
	if m.Timer {
		return
	}
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.stats.Messages++
	n.stats.TotalWords += m.Words
	if m.Words > n.stats.MaxWords {
		n.stats.MaxWords = m.Words
	}
	n.sentBy[m.From]++
	if n.sentBy[m.From] > n.stats.MaxSentByNode {
		n.stats.MaxSentByNode = n.sentBy[m.From]
	}
	switch m.Class {
	case transport.ClassElection:
		n.stats.ElectionMessages++
		n.sawElection = true
	case transport.ClassSync:
		n.stats.SyncMessages++
		n.sawSync = true
	case transport.ClassAudit:
		n.stats.AuditMessages++
		n.sawAudit = true
	}
}

// Pending reports how many messages and timers await delivery.
func (n *Network) Pending() int {
	n.timersMu.Lock()
	t := len(n.timers)
	n.timersMu.Unlock()
	return int(n.inflight.Load()) + t
}

// PendingWords sums the sizes of all waiting network messages.
func (n *Network) PendingWords() int {
	words := 0
	for _, nd := range n.nodes {
		for _, e := range nd.inbox {
			words += e.msg.Words
		}
	}
	return words
}

// Dropped returns the number of network messages addressed to dead
// processors (messages queued at removal plus later sends to the dead
// node). Purged timers are not counted — they are not network traffic.
func (n *Network) Dropped() int {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.dropped
}

// Stats returns a copy of the traffic statistics accumulated since
// the last ResetStats.
func (n *Network) Stats() transport.Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.stats
}

// ResetStats zeroes the traffic statistics.
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.stats = transport.Stats{}
	n.sentBy = make(map[NodeID]int)
}
