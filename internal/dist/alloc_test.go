package dist

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/graph"
)

// Allocation pins for the open-loop engine's hot path. The soak and
// benchmark campaigns spend most wall-clock ticking a quiescent or
// near-quiescent network; a single stray allocation per tick turns
// into GC pressure at n = 10⁶. TestZeroAllocTick pins the steady
// state at exactly zero; BenchmarkTickSteadyState measures the loaded
// path (one churn operation in flight at a time) and is gated in CI
// on ns, messages, and allocations like the other benchmarks.

// steadyChurnedSim builds a powerlaw network, runs real churn through
// the async engine so the steady state carries Reconstruction Trees
// and recycled scratch, and drains it to quiescence.
func steadyChurnedSim(tb testing.TB, n, churn int) *Simulation {
	tb.Helper()
	rng := rand.New(rand.NewSource(4))
	s := NewSimulation(graph.PreferentialAttachment(n, 3, rng))
	var ops []Op
	for _, v := range pickBatch(s.LiveNodes(), rng, churn) {
		ops = append(ops, Op{Kind: OpDelete, V: v})
	}
	if err := s.Submit(ops...); err != nil {
		tb.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		tb.Fatal(err)
	}
	for _, ev := range s.Poll() {
		if ev.Kind == EventOpRejected {
			tb.Fatalf("churn op rejected: %v", ev.Err)
		}
	}
	return s
}

// TestZeroAllocTick pins the quiescent steady state: once the engine
// has drained, a Tick (transport pulse, completion drain, admission
// sweep, audit hooks, certificate sweep guard) plus an empty event
// drain must not allocate at all. With the audit on, every processor
// holds a standing tick timer; the ticks between two period
// boundaries, where none of them is due, must not allocate either.
func TestZeroAllocTick(t *testing.T) {
	const runs = 200
	for _, audited := range []bool{false, true} {
		name := "audit-off"
		if audited {
			name = "audit-on"
		}
		t.Run(name, func(t *testing.T) {
			s := steadyChurnedSim(t, 256, 24)
			if audited {
				if err := s.EnableAudit(audit.Config{}); err != nil {
					t.Fatal(err)
				}
				if left := audit.DefaultPeriod - s.net.Round()%audit.DefaultPeriod; left <= runs+1 {
					t.Fatalf("only %d ticks to the next audit boundary", left)
				}
			}
			if !s.Idle() {
				t.Fatal("engine not idle after drain")
			}
			allocs := testing.AllocsPerRun(runs, func() {
				if s.Tick() {
					t.Fatal("engine reported work while quiescent")
				}
				if evs := s.Poll(); len(evs) != 0 {
					t.Fatalf("events on a quiescent tick: %v", evs)
				}
			})
			if allocs != 0 {
				t.Fatalf("quiescent Tick allocates %.1f times per op, want 0", allocs)
			}
		})
	}
}

// BenchmarkTickSteadyState is the loaded per-tick cost on a
// powerlaw-1024 network: an open-loop trickle keeps exactly one churn
// operation (alternating delete and size-restoring insert) in the
// engine at all times, so every iteration is one Tick of live repair
// traffic plus its event drain. Messages and allocations per tick are
// the gated regression metrics; rounds are the iterations themselves.
func BenchmarkTickSteadyState(b *testing.B) {
	s := steadyChurnedSim(b, 1024, 32)
	rng := rand.New(rand.NewSource(11))
	nextID := NodeID(1 << 20)
	deleteNext := true
	var msgs float64
	// live mirrors s.LiveNodes() without copying and sorting it on
	// every timed submit: ops are submitted only when the engine is
	// idle, so each deletion has removed its target by the next draw,
	// and each insert's ID exceeds every live ID, so it appends.
	live := s.LiveNodes()
	submit := func() {
		if deleteNext {
			i := rng.Intn(len(live))
			if err := s.Submit(Op{Kind: OpDelete, V: live[i]}); err != nil {
				b.Fatal(err)
			}
			live = slices.Delete(live, i, i+1)
		} else {
			v := nextID
			nextID++
			nbr := live[rng.Intn(len(live))]
			if err := s.Submit(Op{Kind: OpInsert, V: v, Nbrs: []NodeID{nbr}}); err != nil {
				b.Fatal(err)
			}
			live = append(live, v)
		}
		deleteNext = !deleteNext
	}
	before := s.net.Stats().Messages
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Idle() {
			submit()
		}
		s.Tick()
		for _, ev := range s.Poll() {
			if ev.Kind == EventOpRejected {
				b.Fatalf("rejected: %v", ev.Err)
			}
		}
	}
	b.StopTimer()
	msgs = float64(s.net.Stats().Messages - before)
	b.ReportMetric(msgs/float64(b.N), "msgs/tick")
	if err := s.Drain(); err != nil {
		b.Fatal(err)
	}
	if err := s.Verify(); err != nil {
		b.Fatal(err)
	}
}
