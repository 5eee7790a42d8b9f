package transport_test

import (
	"runtime"
	"testing"

	"repro/internal/simnet"
	"repro/internal/transport"
)

// BenchmarkStandingTimers measures the timer store under the audit
// layer's load shape: 16384 registered processors on simnet, each
// holding one standing timer that never falls due during the run.
//
//   - idle-step times a Step with nothing due, the pulse every quiet
//     audited tick pays.
//   - remove-node times the timer side of one deletion and one join:
//     RemoveNode, AddNode and re-arming the standing timer, which keeps
//     16384 timers armed throughout. One untimed pass over every node
//     first lets the store and the maps reach their steady size.
func BenchmarkStandingTimers(b *testing.B) {
	const nodes = 16384
	const far = 1 << 40 // rounds: no standing timer falls due
	setup := func() *simnet.Network {
		n := simnet.New()
		noop := func(transport.Endpoint, transport.Message) {}
		for id := transport.NodeID(0); id < nodes; id++ {
			n.AddNode(id, noop)
			n.SendTimer(id, "tick", far)
		}
		return n
	}
	cycle := func(n *simnet.Network, i int) {
		id := transport.NodeID(i % nodes)
		n.RemoveNode(id)
		n.AddNode(id, func(transport.Endpoint, transport.Message) {})
		n.SendTimer(id, "tick", far)
	}
	b.Run("idle-step", func(b *testing.B) {
		n := setup()
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n.Step() != 0 {
				b.Fatal("a standing timer fell due")
			}
		}
	})
	b.Run("remove-node", func(b *testing.B) {
		n := setup()
		for i := 0; i < nodes; i++ {
			cycle(n, i)
		}
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(n, i)
		}
		b.StopTimer()
		if n.Pending() != nodes {
			b.Fatalf("Pending = %d, want %d standing timers", n.Pending(), nodes)
		}
	})
}
