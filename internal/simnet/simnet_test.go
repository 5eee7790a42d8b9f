package simnet

import (
	"repro/internal/transport"
	"testing"
)

func TestSendAndDeliver(t *testing.T) {
	n := New()
	var got []string
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) {
		got = append(got, m.Payload.(string))
	})
	n.Send(2, 1, "hello", 1)
	if d := n.Step(); d != 1 {
		t.Fatalf("delivered %d, want 1", d)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Fatalf("got %v", got)
	}
}

func TestRoundSemantics(t *testing.T) {
	// A message sent during round r is delivered in round r+1, not r.
	n := New()
	var deliveries []int
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) {
		deliveries = append(deliveries, net.Round())
		if m.Payload == "first" {
			net.Send(1, 1, "second", 1)
		}
	})
	n.Send(0, 1, "first", 1)
	rounds, err := n.RunUntilQuiescent(10)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds = %d, want 2", rounds)
	}
	if len(deliveries) != 2 || deliveries[1] != deliveries[0]+1 {
		t.Fatalf("delivery rounds = %v", deliveries)
	}
}

func TestDeterministicOrder(t *testing.T) {
	run := func() []NodeID {
		n := New()
		var order []NodeID
		h := func(net transport.Endpoint, m transport.Message) { order = append(order, m.From) }
		n.AddNode(1, h)
		n.AddNode(2, h)
		// Send in scrambled order; delivery must sort by (to, from, seq).
		n.Send(9, 2, "x", 1)
		n.Send(5, 1, "x", 1)
		n.Send(3, 1, "x", 1)
		n.Send(3, 1, "y", 1)
		n.Step()
		return order
	}
	a, b := run(), run()
	want := []NodeID{3, 3, 5, 9}
	for i := range want {
		if a[i] != want[i] || b[i] != want[i] {
			t.Fatalf("order = %v / %v, want %v", a, b, want)
		}
	}
}

func TestDeadNodeDrops(t *testing.T) {
	n := New()
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) {})
	n.RemoveNode(1)
	n.Send(0, 1, "x", 1)
	n.Step()
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped())
	}
	if n.Stats().Messages != 0 {
		t.Fatal("dropped message counted as delivered")
	}
}

func TestTimer(t *testing.T) {
	n := New()
	var fired int
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) {
		if m.Payload == "timer" {
			fired = net.Round()
		}
	})
	n.SendTimer(1, "timer", 3)
	rounds, err := n.RunUntilQuiescent(10)
	if err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("timer fired at round %d, want 3", fired)
	}
	if rounds < 3 {
		t.Fatalf("quiescence after %d rounds", rounds)
	}
	// Timers are free: no traffic recorded.
	if s := n.Stats(); s.Messages != 0 || s.TotalWords != 0 {
		t.Fatalf("timer counted as traffic: %+v", s)
	}
}

func TestStatsAccounting(t *testing.T) {
	n := New()
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) {})
	n.AddNode(2, func(net transport.Endpoint, m transport.Message) {})
	n.Send(5, 1, "a", 2)
	n.Send(5, 2, "b", 7)
	n.Send(6, 1, "c", 1)
	n.Step()
	s := n.Stats()
	if s.Messages != 3 || s.TotalWords != 10 || s.MaxWords != 7 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxSentByNode != 2 {
		t.Fatalf("MaxSentByNode = %d, want 2", s.MaxSentByNode)
	}
	if s.Rounds != 1 {
		t.Fatalf("Rounds = %d, want 1", s.Rounds)
	}
	n.ResetStats()
	if s := n.Stats(); s.Messages != 0 || s.MaxSentByNode != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func TestRunUntilQuiescentBound(t *testing.T) {
	n := New()
	// Ping-pong forever.
	n.AddNode(1, func(net transport.Endpoint, m transport.Message) { net.Send(1, 2, "p", 1) })
	n.AddNode(2, func(net transport.Endpoint, m transport.Message) { net.Send(2, 1, "p", 1) })
	n.Send(0, 1, "start", 1)
	if _, err := n.RunUntilQuiescent(20); err == nil {
		t.Fatal("expected quiescence-bound error")
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	n := New()
	mustPanic(t, "zero words", func() { n.Send(1, 2, "x", 0) })
	mustPanic(t, "zero delay", func() { n.SendTimer(1, "x", 0) })
	mustPanic(t, "nil handler", func() { n.AddNode(1, nil) })
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

func TestHasNode(t *testing.T) {
	n := New()
	if n.HasNode(3) {
		t.Fatal("empty network has node")
	}
	n.AddNode(3, func(transport.Endpoint, transport.Message) {})
	if !n.HasNode(3) {
		t.Fatal("node missing after AddNode")
	}
}
