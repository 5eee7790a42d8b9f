package simnet

import (
	"reflect"
	"repro/internal/transport"
	"testing"
)

// Tests for the per-edge bandwidth model: FIFO spill-over, congestion
// accounting, timer exemption, pending accounting, and determinism.

// collect records every delivery as (round, from, to, payload).
type delivery struct {
	Round    int
	From, To NodeID
	Payload  any
}

func recorder(log *[]delivery) transport.Handler {
	return func(n transport.Endpoint, m transport.Message) {
		*log = append(*log, delivery{Round: n.Round(), From: m.From, To: m.To, Payload: m.Payload})
	}
}

func TestBandwidthSpillFIFO(t *testing.T) {
	n := New()
	var log []delivery
	n.AddNode(1, recorder(&log))
	n.SetBandwidth(2)
	// Three 2-word messages on the same edge: one fits per round.
	n.Send(5, 1, "a", 2)
	n.Send(5, 1, "b", 2)
	n.Send(5, 1, "c", 2)
	rounds, err := n.RunUntilQuiescent(10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 3 {
		t.Fatalf("rounds = %d, want 3 (one 2-word message per round at B=2)", rounds)
	}
	want := []delivery{
		{Round: 1, From: 5, To: 1, Payload: "a"},
		{Round: 2, From: 5, To: 1, Payload: "b"},
		{Round: 3, From: 5, To: 1, Payload: "c"},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("deliveries = %v, want %v (per-edge FIFO)", log, want)
	}
	s := n.Stats()
	if s.CongestionRounds != 2 {
		t.Errorf("CongestionRounds = %d, want 2", s.CongestionRounds)
	}
	// Round 1 defers b and c (4 words), round 2 defers c (2 words).
	if s.QueuedWords != 6 {
		t.Errorf("QueuedWords = %d, want 6", s.QueuedWords)
	}
	if s.MaxEdgeBacklog != 4 {
		t.Errorf("MaxEdgeBacklog = %d, want 4", s.MaxEdgeBacklog)
	}
	if s.Messages != 3 || s.TotalWords != 6 {
		t.Errorf("traffic stats = %+v (delivery counts must not change)", s)
	}
}

func TestBandwidthFIFOWithMixedSizes(t *testing.T) {
	// A small message must not overtake an earlier larger one on the
	// same edge: at B=3, a(2w) fits, b(2w) defers — and then c(1w)
	// must defer behind b even though it would fit the leftover budget.
	n := New()
	var log []delivery
	n.AddNode(1, recorder(&log))
	n.SetBandwidth(3)
	n.Send(5, 1, "a", 2)
	n.Send(5, 1, "b", 2)
	n.Send(5, 1, "c", 1)
	if _, err := n.RunUntilQuiescent(5); err != nil {
		t.Fatal(err)
	}
	want := []delivery{
		{Round: 1, From: 5, To: 1, Payload: "a"},
		{Round: 2, From: 5, To: 1, Payload: "b"},
		{Round: 2, From: 5, To: 1, Payload: "c"},
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("deliveries = %v, want %v (strict per-edge FIFO)", log, want)
	}
}

func TestBandwidthAtLeastOneMessagePerEdge(t *testing.T) {
	n := New()
	var log []delivery
	n.AddNode(1, recorder(&log))
	n.SetBandwidth(1)
	// A message larger than the cap still traverses: it occupies the
	// edge for its whole round instead of starving.
	n.Send(2, 1, "big", 10)
	rounds, err := n.RunUntilQuiescent(5)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 || len(log) != 1 {
		t.Fatalf("rounds=%d deliveries=%d, want 1/1", rounds, len(log))
	}
	if s := n.Stats(); s.CongestionRounds != 0 || s.QueuedWords != 0 {
		t.Fatalf("lone oversized message counted as congestion: %+v", s)
	}
}

func TestTimersNeverConsumeBandwidth(t *testing.T) {
	n := New()
	var log []delivery
	n.AddNode(1, recorder(&log))
	n.SetBandwidth(1)
	// Three timers due the same round as a full edge: all of them fire
	// in round 1 anyway, and none of them counts as congestion.
	n.SendTimer(1, "t1", 1)
	n.SendTimer(1, "t2", 1)
	n.SendTimer(1, "t3", 1)
	n.Send(2, 1, "m1", 1)
	n.Send(2, 1, "m2", 1) // deferred: edge (2,1) is full
	n.Step()
	firstRound := 0
	for _, d := range log {
		if d.Round == 1 {
			firstRound++
		}
	}
	if firstRound != 4 { // 3 timers + m1
		t.Fatalf("round 1 delivered %d, want 4 (timers bypass the edge cap)", firstRound)
	}
	if s := n.Stats(); s.CongestionRounds != 1 || s.QueuedWords != 1 {
		t.Fatalf("stats = %+v, want exactly m2 deferred", s)
	}
	if _, err := n.RunUntilQuiescent(5); err != nil {
		t.Fatal(err)
	}
	if len(log) != 5 {
		t.Fatalf("total deliveries = %d, want 5", len(log))
	}
}

func TestPendingCountsBacklog(t *testing.T) {
	n := New()
	n.AddNode(1, func(transport.Endpoint, transport.Message) {})
	n.SetBandwidth(1)
	n.Send(2, 1, "a", 1)
	n.Send(2, 1, "b", 3)
	n.Send(2, 1, "c", 2)
	n.Step() // delivers a; b and c stay backlogged
	if p := n.Pending(); p != 2 {
		t.Fatalf("Pending after one round = %d, want 2 backlogged messages", p)
	}
}

func TestPerEdgeBandwidthOverride(t *testing.T) {
	n := New()
	var log []delivery
	n.AddNode(1, recorder(&log))
	n.AddNode(2, recorder(&log))
	// Globally unlimited, but edge (9,1) is capped at 1 word/round.
	n.SetEdgeBandwidth(9, 1, 1)
	n.Send(9, 1, "x", 1)
	n.Send(9, 1, "y", 1)
	n.Send(9, 2, "z", 1)
	n.Send(8, 1, "w", 1)
	n.Step()
	round1 := 0
	for _, d := range log {
		if d.Round == 1 {
			round1++
		}
	}
	if round1 != 3 { // x, z, w; y spills
		t.Fatalf("round 1 delivered %d, want 3 (only the capped edge spills)", round1)
	}
	if s := n.Stats(); s.CongestionRounds != 1 || s.MaxEdgeBacklog != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// Removing the override restores unlimited delivery on that edge.
	n.SetEdgeBandwidth(9, 1, 0)
	n.Send(9, 1, "p", 5)
	n.Send(9, 1, "q", 5)
	before := len(log)
	n.Step()
	if got := len(log) - before; got != 3 { // y (spilled) + p + q
		t.Fatalf("round 2 delivered %d, want 3 after clearing the override", got)
	}
}

// TestBandwidthDeterministicOrder runs the same congested script twice
// through Step: the runs must produce the identical delivery sequence
// at every receiver.
func TestBandwidthDeterministicOrder(t *testing.T) {
	script := func() [5][]delivery {
		n := New()
		var logs [5][]delivery // one slot per receiver
		for _, id := range []NodeID{1, 2, 3} {
			id := id
			n.AddNode(id, func(net transport.Endpoint, m transport.Message) {
				logs[id] = append(logs[id], delivery{Round: net.Round(), From: m.From, To: m.To, Payload: m.Payload})
			})
		}
		// Node 4 echoes one hop onward so spill-over interleaves with
		// fresh sends.
		n.AddNode(4, func(net transport.Endpoint, m transport.Message) {
			logs[4] = append(logs[4], delivery{Round: net.Round(), From: m.From, To: m.To, Payload: m.Payload})
			net.Send(4, 1, "echo", 2)
		})
		n.SetBandwidth(2)
		n.Send(9, 2, "a", 2)
		n.Send(9, 2, "b", 1)
		n.Send(7, 1, "c", 2)
		n.Send(9, 4, "d", 1)
		n.Send(9, 4, "e", 2)
		n.Send(7, 1, "f", 1)
		n.Send(9, 2, "g", 1)
		for i := 0; i < 12 && n.Pending() > 0; i++ {
			n.Step()
		}
		return logs
	}
	a := script()
	b := script()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs diverge:\n%v\n%v", a, b)
	}
}

// TestBandwidthUnlimitedIsBitForBit: a huge cap must behave exactly
// like the unlimited default, congestion counters included.
func TestBandwidthUnlimitedIsBitForBit(t *testing.T) {
	run := func(cap int) ([]delivery, transport.Stats, int) {
		n := New()
		var log []delivery
		h := recorder(&log)
		n.AddNode(1, h)
		n.AddNode(2, h)
		n.SetBandwidth(cap)
		n.Send(5, 1, "a", 3)
		n.Send(5, 1, "b", 4)
		n.Send(6, 2, "c", 2)
		rounds, err := n.RunUntilQuiescent(10)
		if err != nil {
			t.Fatal(err)
		}
		return log, n.Stats(), rounds
	}
	logU, statsU, roundsU := run(0)
	logB, statsB, roundsB := run(1 << 20)
	if !reflect.DeepEqual(logU, logB) || statsU != statsB || roundsU != roundsB {
		t.Fatalf("huge cap diverges from unlimited: %v/%+v/%d vs %v/%+v/%d",
			logU, statsU, roundsU, logB, statsB, roundsB)
	}
	if statsU.CongestionRounds != 0 || statsU.QueuedWords != 0 || statsU.MaxEdgeBacklog != 0 {
		t.Fatalf("congestion counters nonzero without congestion: %+v", statsU)
	}
}
