package transport_test

import (
	"testing"

	"repro/internal/transport"
)

// TestTrafficBooking pins the counting rules every backend shares
// through transport.Traffic. Two senders each send one message of
// every class in the first pulse, a lone timer fires in the second,
// and a send to a removed processor is dropped before either. A
// timer is a round but not traffic; a class counts one round per
// pulse that carried it, however many of its messages the pulse
// delivered; ResetStats zeroes everything except Dropped.
func TestTrafficBooking(t *testing.T) {
	classes := []transport.Class{
		transport.ClassData, transport.ClassElection, transport.ClassSync, transport.ClassAudit,
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			n := b.make()
			noop := func(transport.Endpoint, transport.Message) {}
			for _, id := range []transport.NodeID{1, 2, 3} {
				n.AddNode(id, noop)
			}
			n.RemoveNode(3)
			n.Send(1, 3, "late", 1)
			// Words = sender + class: 1..4 from processor 1, 2..5 from 2.
			for _, c := range classes {
				n.SendClass(1, 2, "m", 1+int(c), c)
				n.SendClass(2, 1, "m", 2+int(c), c)
			}
			n.SendTimer(1, "tick", 2)
			check := func(when string, want transport.Stats, dropped int) {
				t.Helper()
				if got := n.Stats(); got != want {
					t.Fatalf("%s: Stats = %+v, want %+v", when, got, want)
				}
				if got := n.Dropped(); got != dropped {
					t.Fatalf("%s: Dropped = %d, want %d", when, got, dropped)
				}
			}

			if d := n.Step(); d != 8 {
				t.Fatalf("first pulse delivered %d, want 8", d)
			}
			want := transport.Stats{
				Messages: 8, Rounds: 1, TotalWords: 24, MaxWords: 5, MaxSentByNode: 4,
				ElectionMessages: 2, SyncMessages: 2, ElectionRounds: 1, SyncRounds: 1,
				AuditMessages: 2, AuditRounds: 1,
			}
			check("after the messages' pulse", want, 1)

			if d := n.Step(); d != 1 {
				t.Fatalf("second pulse delivered %d, want the timer", d)
			}
			want.Rounds = 2
			check("after the timer's pulse", want, 1)

			if d := n.Step(); d != 0 {
				t.Fatalf("empty pulse delivered %d", d)
			}
			check("after an empty pulse", want, 1)

			n.ResetStats()
			check("after ResetStats", transport.Stats{}, 1)
		})
	}
}
