// Package simnet is a deterministic synchronous-round message-passing
// simulator for the distributed Forgiving Graph protocol.
//
// The model matches Figure 1 of the paper: messages sent in round r are
// delivered at the start of round r+1 ("it takes a message no more than
// 1 time unit to traverse any edge"), are never lost or corrupted, and
// may contain names of other vertices. Local computation is free; the
// complexity measures are the number of messages, their sizes (in words
// of O(log n) bits), and the number of rounds until quiescence.
//
// Delivery within a round is deterministic: messages are handed to
// receivers ordered by (receiver, sender, send sequence). Handlers run
// sequentially, so no locking is needed; determinism makes protocol runs
// reproducible and directly comparable with the reference engine.
//
// # Bandwidth
//
// By default every queued message is delivered in the next round
// regardless of sender load — the paper's model, but dishonest about
// per-link capacity: a hotspot that serializes O(d log n) sends pays no
// round-count price. SetBandwidth imposes a per-edge capacity of B
// message-words per round (SetEdgeBandwidth overrides single directed
// edges, modeling heterogeneous links). Excess traffic queues FIFO per
// edge and spills deterministically into later rounds; an edge always
// carries at least its oldest queued message per round, so a message
// larger than B occupies the edge for a whole round rather than
// starving (store-and-forward with a one-packet minimum). Timers are
// local wake-ups and never consume bandwidth. With the default
// unlimited bandwidth the behavior is bit-for-bit the historical one;
// the congestion counters in Stats stay zero.
package simnet

import (
	"fmt"
	"sort"

	"repro/internal/transport"
)

// NodeID identifies a processor, shared with package transport.
type NodeID = transport.NodeID

// Network implements transport.Transport as the deterministic
// round-synchronous measurement backend.
var _ transport.Transport = (*Network)(nil)

// edgeKey identifies a directed edge for capacity accounting. Capacity
// is directional: the two directions of a link are separate channels.
type edgeKey struct {
	from, to NodeID
}

// Network is a set of processors exchanging messages in lock-step
// rounds. The zero value is not usable; construct with New.
type Network struct {
	handlers map[NodeID]transport.Handler
	queue    []transport.Message // to be delivered at the next Step
	timers   transport.Timers    // armed timers, due by round number
	round    int
	seq      int

	// bandwidth caps every edge at this many words per round; 0 means
	// unlimited. edgeCap overrides single directed edges; nodeCap
	// clamps every link incident to a node (heterogeneous access
	// links), compounding with the other caps by minimum.
	bandwidth int
	edgeCap   map[edgeKey]int
	nodeCap   map[NodeID]int

	traffic transport.Traffic

	// spare recycles the delivered batch's backing array into the next
	// round's queue, and sorter wraps the batch for sort.Sort — both
	// keep the steady-state Step free of per-round allocations.
	spare  []transport.Message
	sorter batchSorter
}

// batchSorter sorts one round's batch into the deterministic delivery
// order (receiver, then sender, then send sequence). A pointer to it
// satisfies sort.Interface without the per-call allocations of
// sort.Slice.
type batchSorter struct{ msgs []transport.Message }

func (b *batchSorter) Len() int      { return len(b.msgs) }
func (b *batchSorter) Swap(i, j int) { b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i] }
func (b *batchSorter) Less(i, j int) bool {
	x, y := b.msgs[i], b.msgs[j]
	if x.To != y.To {
		return x.To < y.To
	}
	if x.From != y.From {
		return x.From < y.From
	}
	return x.Seq < y.Seq
}

// New returns an empty network at round 0.
func New() *Network {
	return &Network{handlers: make(map[NodeID]transport.Handler)}
}

// AddNode registers a processor. Re-registering replaces the handler.
func (n *Network) AddNode(id NodeID, h transport.Handler) {
	if h == nil {
		panic("simnet: nil handler")
	}
	n.handlers[id] = h
}

// RemoveNode unregisters a processor (the node is dead). Messages
// already queued for it are dropped and counted now, and its armed
// timers are discarded uncounted — the single defined counting point
// shared with channet: a message is counted Dropped at the earliest
// moment the backend knows its target is dead (here, or at send time
// for later sends), and timers never count.
func (n *Network) RemoveNode(id NodeID) {
	delete(n.handlers, id)
	keepQ := n.queue[:0]
	for _, m := range n.queue {
		if m.To == id && !m.Timer {
			n.traffic.Drop(1)
			continue
		}
		keepQ = append(keepQ, m)
	}
	n.queue = keepQ
	n.timers.RemoveOwner(id)
}

// HasNode reports whether a processor is registered.
func (n *Network) HasNode(id NodeID) bool {
	_, ok := n.handlers[id]
	return ok
}

// Round returns the current round number.
func (n *Network) Round() int { return n.round }

// SetBandwidth caps every edge at the given number of message-words
// per round. Zero (the default) restores unlimited delivery. Changing
// the cap never loses traffic: messages already deferred simply drain
// under the new budget.
func (n *Network) SetBandwidth(words int) {
	if words < 0 {
		panic(fmt.Sprintf("simnet: negative bandwidth %d", words))
	}
	n.bandwidth = words
}

// SetEdgeBandwidth overrides the capacity of one directed edge,
// modeling heterogeneous links. words <= 0 removes the override,
// returning the edge to the global cap.
func (n *Network) SetEdgeBandwidth(from, to NodeID, words int) {
	e := edgeKey{from: from, to: to}
	if words <= 0 {
		delete(n.edgeCap, e)
		return
	}
	if n.edgeCap == nil {
		n.edgeCap = make(map[edgeKey]int)
	}
	n.edgeCap[e] = words
}

// SetNodeBandwidth caps every link incident to one node at the given
// number of words per round — the "slow access link" of a
// heterogeneous topology: every message to or from the node squeezes
// through its uplink. words <= 0 removes the cap. Node caps compound
// with the global and per-edge caps by minimum.
func (n *Network) SetNodeBandwidth(id NodeID, words int) {
	if words <= 0 {
		delete(n.nodeCap, id)
		return
	}
	if n.nodeCap == nil {
		n.nodeCap = make(map[NodeID]int)
	}
	n.nodeCap[id] = words
}

// edgeBudget returns the words-per-round cap of one directed edge
// (0 = unlimited): the per-edge override if set, else the global cap,
// clamped by both endpoints' node caps.
func (n *Network) edgeBudget(e edgeKey) int {
	b := n.bandwidth
	if c, ok := n.edgeCap[e]; ok {
		b = c
	}
	clamp := func(c int) {
		if c > 0 && (b == 0 || c < b) {
			b = c
		}
	}
	clamp(n.nodeCap[e.from])
	clamp(n.nodeCap[e.to])
	return b
}

// EdgeBudget returns the effective words-per-round cap of one directed
// edge (0 = unlimited): the per-edge override if set, else the global
// cap, clamped by both endpoints' node caps (SetNodeBandwidth).
// Sender-side pacing consults it so a narrow link is trickled at its
// own rate instead of the global one.
func (n *Network) EdgeBudget(from, to NodeID) int {
	return n.edgeBudget(edgeKey{from: from, to: to})
}

// applyBandwidth enforces the per-edge capacity on one round's sorted
// delivery batch: it returns the messages that fit, re-queues the rest
// for the next round (they keep their sequence numbers, so per-edge
// FIFO order and global delivery determinism are preserved), and books
// the congestion counters. Each edge always passes its oldest queued
// message, so progress is guaranteed even for messages larger than the
// cap. Timers bypass the check entirely: they are local wake-ups, not
// link traffic.
func (n *Network) applyBandwidth(batch []transport.Message) []transport.Message {
	if n.bandwidth <= 0 && len(n.edgeCap) == 0 && len(n.nodeCap) == 0 {
		return batch
	}
	used := make(map[edgeKey]int)
	var backlog map[edgeKey]int
	out := batch[:0]
	for _, m := range batch {
		if !m.Timer {
			e := edgeKey{from: m.From, to: m.To}
			if cap := n.edgeBudget(e); cap > 0 {
				// Once an edge has deferred a message, everything later
				// on that edge this round defers too — a smaller message
				// must not overtake a larger one, or FIFO breaks.
				_, full := backlog[e]
				u := used[e]
				if full || (u > 0 && u+m.Words > cap) {
					if backlog == nil {
						backlog = make(map[edgeKey]int)
					}
					backlog[e] += m.Words
					n.queue = append(n.queue, m)
					continue
				}
				used[e] = u + m.Words
			}
		}
		out = append(out, m)
	}
	for _, w := range backlog {
		n.traffic.Defer(w)
	}
	return out
}

// Send enqueues a message for delivery in the next round. Words must
// reflect the payload size in O(log n)-bit words and be at least 1.
func (n *Network) Send(from, to NodeID, payload any, words int) {
	n.SendClass(from, to, payload, words, transport.ClassData)
}

// SendClass is Send with an explicit accounting class (see
// transport.Class).
// Sends to unregistered (dead) targets are dropped and counted here —
// the send is the earliest point the backend knows the target is dead.
// The sequence number is still consumed, so the deterministic delivery
// order of the surviving traffic is unchanged.
func (n *Network) SendClass(from, to NodeID, payload any, words int, class transport.Class) {
	if words < 1 {
		panic(fmt.Sprintf("simnet: message with %d words", words))
	}
	n.seq++
	if _, ok := n.handlers[to]; !ok {
		n.traffic.Drop(1)
		return
	}
	n.queue = append(n.queue, transport.Message{
		From: from, To: to, Payload: payload, Words: words, Class: class, Seq: n.seq,
	})
}

// SendTimer schedules a local wake-up for the sending processor after
// delay rounds (delay >= 1). Timers do not count as network traffic.
func (n *Network) SendTimer(node NodeID, payload any, delay int) {
	if delay < 1 {
		panic(fmt.Sprintf("simnet: timer with delay %d", delay))
	}
	n.seq++
	n.timers.Arm(node, int64(n.round+delay), n.seq, payload)
}

// Step advances one round: it delivers everything queued for this round,
// running the receivers' handlers (which typically enqueue messages for
// the following round). It returns the number of deliveries performed.
func (n *Network) Step() int {
	n.round++
	batch := n.queue
	// Hand the spare backing array to the new queue and recycle the
	// batch's when the round is over: sends during delivery grow an
	// already-sized array instead of reallocating from nil every round.
	n.queue = n.spare[:0]
	n.spare = nil
	batch = n.timers.PopDue(int64(n.round), batch)
	if len(batch) == 0 {
		n.spare = batch
		return 0
	}
	n.sorter.msgs = batch
	sort.Sort(&n.sorter)
	n.sorter.msgs = nil
	batch = n.applyBandwidth(batch)
	delivered := 0
	for _, m := range batch {
		h, ok := n.handlers[m.To]
		if !ok {
			// Defensive only: dead-addressed traffic is dropped and
			// counted at send or at RemoveNode, never here. Timers are
			// never counted as Dropped.
			if !m.Timer {
				n.traffic.Drop(1)
			}
			continue
		}
		n.traffic.Deliver(m)
		delivered++
		h(n, m)
	}
	n.traffic.EndPulse(delivered)
	n.spare = batch[:0]
	return delivered
}

// RunUntilQuiescent steps the network until no messages or timers remain
// in flight, up to maxRounds. It returns the number of rounds executed
// and an error if the bound was hit with traffic still pending.
func (n *Network) RunUntilQuiescent(maxRounds int) (int, error) {
	start := n.round
	for n.Pending() > 0 {
		if n.round-start >= maxRounds {
			return n.round - start, fmt.Errorf("simnet: not quiescent after %d rounds (%d queued, %d timers)",
				maxRounds, len(n.queue), n.timers.Len())
		}
		n.Step()
	}
	return n.round - start, nil
}

// Pending reports how many messages and timers are waiting for
// delivery, messages deferred by the bandwidth limit included.
func (n *Network) Pending() int { return len(n.queue) + n.timers.Len() }

// PendingWords sums the sizes of all waiting network messages,
// bandwidth-deferred backlog included (timers are free and count 0).
func (n *Network) PendingWords() int {
	words := 0
	for _, m := range n.queue {
		words += m.Words
	}
	return words
}

// Dropped returns the number of messages addressed to dead processors.
func (n *Network) Dropped() int { return n.traffic.Dropped() }

// Stats returns a copy of the traffic statistics accumulated since the
// last ResetStats.
func (n *Network) Stats() transport.Stats { return n.traffic.Stats() }

// ResetStats zeroes the traffic statistics (typically between recovery
// phases, so each repair is measured in isolation).
func (n *Network) ResetStats() { n.traffic.ResetStats() }
