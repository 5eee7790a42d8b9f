package transport_test

import (
	"testing"

	"repro/internal/channet"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// backends are the in-process Transports every conformance test runs
// on; the wire hub mirrors these tests in internal/wirenet.
var backends = []struct {
	name string
	make func() transport.Transport
}{
	{"simnet", func() transport.Transport { return simnet.New() }},
	{"channet", func() transport.Transport { return channet.New() }},
	{"channet-seeded", func() transport.Transport { return channet.NewSeeded(1) }},
}

// TestDroppedCountingPoint pins the normalized Dropped accounting every
// backend must follow: a message is counted at the earliest point the
// backend knows its target is dead — at RemoveNode for messages already
// queued, at send time afterwards — and timers are never counted. The
// same script must produce identical Dropped/Pending readings on every
// backend at every observation point, not merely the same final total.
func TestDroppedCountingPoint(t *testing.T) {
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			n := b.make()
			noop := func(transport.Endpoint, transport.Message) {}
			n.AddNode(1, noop)
			n.AddNode(2, noop)

			// Queued message to a node that then dies: counted at
			// RemoveNode, and gone from Pending at the same moment.
			n.Send(1, 2, "queued", 1)
			n.RemoveNode(2)
			if got := n.Dropped(); got != 1 {
				t.Fatalf("Dropped after RemoveNode = %d, want 1 (eager count of queued message)", got)
			}
			if got := n.Pending(); got != 0 {
				t.Fatalf("Pending after RemoveNode = %d, want 0 (purged, not lingering)", got)
			}

			// Send to an already-dead target: counted at send.
			n.Send(1, 2, "late", 1)
			if got := n.Dropped(); got != 2 {
				t.Fatalf("Dropped after send-to-dead = %d, want 2 (counted at send)", got)
			}
			if got := n.Pending(); got != 0 {
				t.Fatalf("Pending after send-to-dead = %d, want 0", got)
			}

			// A dead node's armed timers are purged uncounted.
			n.SendTimer(1, "tick", 3)
			if got := n.Pending(); got != 1 {
				t.Fatalf("Pending with armed timer = %d, want 1", got)
			}
			n.RemoveNode(1)
			if got := n.Dropped(); got != 2 {
				t.Fatalf("Dropped after timer purge = %d, want 2 (timers never count)", got)
			}
			if got := n.Pending(); got != 0 {
				t.Fatalf("Pending after timer purge = %d, want 0", got)
			}

			// Nothing left: stepping delivers nothing and counts nothing.
			if d := n.Step(); d != 0 {
				t.Fatalf("Step on drained net delivered %d, want 0", d)
			}
			if got := n.Dropped(); got != 2 {
				t.Fatalf("Dropped after Step = %d, want 2", got)
			}
		})
	}
}
