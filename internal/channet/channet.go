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
// backend: the network embeds transport.NoBandwidth, so EdgeBudget is
// always 0 (sender-side pacing degenerates to plain sends) and the
// SetBandwidth family panics on a positive cap. Bandwidth and
// congestion experiments are simnet-only; see EXPERIMENTS.md.
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

// Network is a set of processors exchanging messages over in-process
// queues. The zero value is not usable; construct with New or
// NewSeeded. Driver-facing methods (Step, AddNode, Pending, ...) must
// only be called between Steps; handler-facing methods (Send,
// SendTimer, ...) are safe from any handler goroutine mid-pulse.
type Network struct {
	transport.NoBandwidth

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

	// timersMu guards the armed timers (handlers arm concurrently);
	// fired is fireEarliest's reusable batch.
	timersMu sync.Mutex
	timers   transport.Timers
	fired    []transport.Message

	// statsMu guards traffic: handlers book deliveries concurrently.
	statsMu sync.Mutex
	traffic transport.Traffic

	// rng, when non-nil, selects the single-threaded deterministic
	// scheduler: it picks which nonempty inbox delivers next.
	rng *rand.Rand
}

// New returns an empty network in concurrent mode: during each Step
// every processor's inbox is drained by its own goroutine and the Go
// scheduler chooses the interleaving.
func New() *Network {
	return &Network{nodes: make(map[NodeID]*node)}
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
		n.traffic.Drop(k)
		n.statsMu.Unlock()
		nd.inbox = nil
	}
	n.timersMu.Lock()
	n.timers.RemoveOwner(id)
	n.timersMu.Unlock()
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
	var err error
	n.timers.EachOwner(func(owner NodeID) {
		if _, ok := n.nodes[owner]; !ok {
			err = fmt.Errorf("channet: armed timer owned by unregistered processor %d", owner)
		}
	})
	return err
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
	seq := int(n.seq.Add(1))
	due := n.clockOf(owner) + int64(delay)
	n.timersMu.Lock()
	n.timers.Arm(owner, due, seq, payload)
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
		n.traffic.Drop(1)
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

// Step runs one macro-pulse: deliver every queued message (cascades
// included) until nothing is in flight; if that found no messages at
// all and timers are armed, fire the earliest-due timer batch and
// drain it and its cascade the same way. Returns the number of
// deliveries, each fired timer counted once.
func (n *Network) Step() int {
	n.pulse.Add(1)
	delivered := n.drain()
	if delivered == 0 && n.fireEarliest() {
		delivered = n.drain()
	}
	n.statsMu.Lock()
	n.traffic.EndPulse(delivered)
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
				n.statsMu.Lock()
				n.traffic.Deliver(e.msg)
				n.statsMu.Unlock()
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
		n.statsMu.Lock()
		n.traffic.Deliver(e.msg)
		n.statsMu.Unlock()
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
// the minimum due) into their owners' inboxes in (owner, seq) order,
// reporting whether any fired; the drain that follows delivers and
// counts them. Delivery stamps the owner's clock to at least the due
// tick, so re-armed timers march strictly forward.
func (n *Network) fireEarliest() bool {
	n.timersMu.Lock()
	defer n.timersMu.Unlock()
	batch, due := n.timers.PopEarliest(n.fired[:0])
	for _, m := range batch {
		// due-1: take() adds the +1 tick on delivery.
		n.deliverTo(m.From, entry{msg: m, at: due - 1})
	}
	clear(batch)
	n.fired = batch[:0]
	return len(batch) > 0
}

// Pending reports how many messages and timers await delivery.
func (n *Network) Pending() int {
	n.timersMu.Lock()
	t := n.timers.Len()
	n.timersMu.Unlock()
	return int(n.inflight.Load()) + t
}

// Dropped returns the number of network messages addressed to dead
// processors (messages queued at removal plus later sends to the dead
// node). Purged timers are not counted — they are not network traffic.
func (n *Network) Dropped() int {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.traffic.Dropped()
}

// Stats returns a copy of the traffic statistics accumulated since
// the last ResetStats.
func (n *Network) Stats() transport.Stats {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	return n.traffic.Stats()
}

// ResetStats zeroes the traffic statistics.
func (n *Network) ResetStats() {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	n.traffic.ResetStats()
}
