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

// BenchmarkTimerWave measures the timer store on the audit layer's
// firing shape: 16384 processors on simnet, each holding one timer that
// its own handler re-arms, so the store is popped and refilled at
// steady size. One op fires every timer once.
//
//   - aligned: every timer is re-armed with delay 64 and all of them
//     fall due in the same round, the way audit ticks aligned to the
//     period grid do; one op is 64 Steps, one of which fires the wave.
//   - scattered: the timers start spread over 4096 consecutive dues and
//     are re-armed with delay 4096, so each Step fires 4 of them; one op
//     is 4096 Steps.
//
// 4096 untimed Steps first (64 aligned waves, one scattered cycle)
// bring the store, its due index and simnet's buffers to their steady
// size: the index reaches its size only after more distinct dues than
// one aligned cycle holds.
func BenchmarkTimerWave(b *testing.B) {
	const nodes = 16384
	run := func(b *testing.B, delay, spread int) {
		n := simnet.New()
		rearm := func(ep transport.Endpoint, m transport.Message) {
			ep.SendTimer(m.To, m.Payload, delay)
		}
		for id := transport.NodeID(0); id < nodes; id++ {
			n.AddNode(id, rearm)
			n.SendTimer(id, "tick", 1+int(id)%spread)
		}
		for i := 0; i < 4096; i++ {
			n.Step()
		}
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		fired := 0
		for i := 0; i < b.N; i++ {
			for s := 0; s < delay; s++ {
				fired += n.Step()
			}
		}
		b.StopTimer()
		if fired != b.N*nodes {
			b.Fatalf("fired %d timers in %d ops, want %d", fired, b.N, b.N*nodes)
		}
	}
	b.Run("aligned", func(b *testing.B) { run(b, 64, 1) })
	b.Run("scattered", func(b *testing.B) { run(b, 4096, 4096) })
}
