package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// BenchmarkBatchedDelete measures the batched-deletion pipeline on a
// powerlaw-1024 network: one batch of k random live nodes per
// iteration, fresh network each time (repair cost depends on
// accumulated Reconstruction Trees, so iterations must be
// comparable). The custom metrics expose what the throughput claim is
// about: rounds per batch must grow with conflicts, not with k.
// Baselines live in BENCH_dist.json at the repo root.
func BenchmarkBatchedDelete(b *testing.B) {
	base := graph.PreferentialAttachment(1024, 3, rand.New(rand.NewSource(42)))
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var rounds, msgs, waves, sync, election float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := NewSimulation(base)
				rng := rand.New(rand.NewSource(int64(i)))
				batch := pickBatch(s.LiveNodes(), rng, k)
				b.StartTimer()
				if err := s.DeleteBatch(batch); err != nil {
					b.Fatal(err)
				}
				bs := s.LastBatch()
				rounds += float64(bs.Rounds)
				msgs += float64(bs.Messages)
				waves += float64(bs.Waves)
				sync += float64(bs.SyncRounds)
				election += float64(bs.ElectionRounds)
			}
			n := float64(b.N)
			b.ReportMetric(rounds/n, "rounds/batch")
			b.ReportMetric(msgs/n, "msgs/batch")
			b.ReportMetric(waves/n, "waves/batch")
			b.ReportMetric(sync/n, "syncrounds/batch")
			b.ReportMetric(election/n, "electionrounds/batch")
		})
	}
}

// BenchmarkBandwidthRepair measures one hub repair on a powerlaw-1024
// network under per-edge bandwidth caps: B=0 is the unlimited paper
// model, the finite caps exercise the congestion model and the
// leader's paced instruction fan-out. The deleted hub is the same
// deterministic node every iteration (fresh network each time), so the
// message count is exact and the regression gate in CI can hold it to
// a tight tolerance; rounds grow as B shrinks while messages must not
// move at all.
func BenchmarkBandwidthRepair(b *testing.B) {
	base := graph.PreferentialAttachment(1024, 3, rand.New(rand.NewSource(42)))
	// Churn a template once to find the post-churn physical hub; every
	// iteration replays the same churn, so the state under measurement
	// is identical each time. Deleting a hub of the *churned* network
	// hits existing Reconstruction Trees: neighbors answer the death
	// notification with several records' worth of traffic on the same
	// leader-bound edges, which is exactly the congestion under test.
	churn := func() *Simulation {
		s := NewSimulation(base)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 32; i++ {
			live := s.LiveNodes()
			if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	hub, hubDeg := graph.NodeID(0), -1
	{
		s := churn()
		phys := s.Physical()
		for _, v := range s.LiveNodes() {
			if d := phys.Degree(v); d > hubDeg {
				hub, hubDeg = v, d
			}
		}
	}
	for _, bw := range []struct {
		name  string
		words int
	}{
		{"B=inf", 0},
		{"B=4", 4},
		{"B=1", 1},
	} {
		b.Run(bw.name, func(b *testing.B) {
			b.ReportAllocs()
			var rounds, msgs, congested, sync, election float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := churn()
				s.SetBandwidth(bw.words)
				b.StartTimer()
				if err := s.Delete(hub); err != nil {
					b.Fatal(err)
				}
				rs := s.LastRecovery()
				rounds += float64(rs.Rounds)
				msgs += float64(rs.Messages)
				congested += float64(rs.CongestionRounds)
				sync += float64(rs.SyncRounds)
				election += float64(rs.ElectionRounds)
			}
			n := float64(b.N)
			b.ReportMetric(rounds/n, "rounds/repair")
			b.ReportMetric(msgs/n, "msgs/repair")
			b.ReportMetric(congested/n, "congested/repair")
			b.ReportMetric(sync/n, "syncrounds/repair")
			b.ReportMetric(election/n, "electionrounds/repair")
		})
	}
}

// BenchmarkAsyncChurn measures the open-loop engine's pipelined
// deletions on a powerlaw-1024 network: 16 random deletions submitted
// up front, drained once — repairs of disjoint regions overlap and
// colliding ones hand off leader-to-leader, so rounds/drain must track
// the deepest serialization chain, not the deletion count. The
// closed-loop twin (the same 16 deletions applied blocking, one at a
// time) is reported alongside as rounds/closed for the pipelining
// headline; message counts are deterministic at a pinned -benchtime
// and gated like the other two benchmarks.
func BenchmarkAsyncChurn(b *testing.B) {
	base := graph.PreferentialAttachment(1024, 3, rand.New(rand.NewSource(42)))
	const k = 16
	b.ReportAllocs()
	var rounds, msgs, closed, inflight float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(int64(i)))
		s := NewSimulation(base)
		batch := pickBatch(s.LiveNodes(), rng, k)
		twin := NewSimulation(base)
		closedRounds := 0
		for _, v := range batch {
			if err := twin.Delete(v); err != nil {
				b.Fatal(err)
			}
			closedRounds += twin.LastRecovery().Rounds
		}
		closed += float64(closedRounds)
		s.net.ResetStats()
		b.StartTimer()
		var ops []Op
		for _, v := range batch {
			ops = append(ops, Op{Kind: OpDelete, V: v})
		}
		if err := s.Submit(ops...); err != nil {
			b.Fatal(err)
		}
		peak := s.InFlight()
		r := 0
		for !s.Idle() {
			s.Tick()
			r++
			if f := s.InFlight(); f > peak {
				peak = f
			}
		}
		b.StopTimer()
		rounds += float64(r)
		inflight += float64(peak)
		// The drain's true message total comes from the network, not
		// from summing per-repair windows (overlapping repairs share
		// windows, so event sums would double-count).
		msgs += float64(s.net.Stats().Messages)
		for _, ev := range s.Poll() {
			if ev.Kind == EventOpRejected {
				b.Fatalf("rejected: %v", ev.Err)
			}
		}
		if !s.Physical().Equal(twin.Physical()) {
			b.Fatal("async healed graph diverges from closed-loop twin")
		}
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(rounds/n, "rounds/drain")
	b.ReportMetric(closed/n, "rounds/closed")
	b.ReportMetric(msgs/n, "msgs/drain")
	b.ReportMetric(inflight/n, "peakinflight/drain")
}

// BenchmarkCoalescedChurn is the coalescing admission queue's headline:
// the same churn-heavy schedule (cancel and merge bait mixed with plain
// ops, from genCoalesceSchedule) drained with the coalescer off and on.
// Logical throughput is ops/drain over ns/op; the wire cost is
// msgs/drain from the network's own counter. The schedule is seeded by
// the iteration index, so at a pinned -benchtime every count is
// deterministic and the CI gate holds msgs/drain and the coal* decision
// counters to the tight message tolerance — the on/off msgs gap is the
// recorded saving, and EXP-COALESCE asserts the ≥30% reduction on the
// same workload shape.
func BenchmarkCoalescedChurn(b *testing.B) {
	base := graph.PreferentialAttachment(1024, 3, rand.New(rand.NewSource(42)))
	const ops = 48
	for _, mode := range []struct {
		name string
		cfg  *CoalesceConfig
	}{
		{"off", nil},
		{"on", &CoalesceConfig{Window: 4}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs, logical, cancelled, merged, saved float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				schedule := genCoalesceSchedule(base, ops, int64(i))
				s := NewSimulation(base)
				if mode.cfg != nil {
					s.SetCoalescing(*mode.cfg)
				}
				s.net.ResetStats()
				b.StartTimer()
				for _, so := range schedule {
					if err := s.Submit(so.op); err != nil {
						b.Fatal(err)
					}
					for r := 0; r < so.delay; r++ {
						s.Tick()
					}
				}
				if err := s.Drain(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				msgs += float64(s.net.Stats().Messages)
				logical += float64(len(schedule))
				for _, ev := range s.Poll() {
					if ev.Kind == EventOpRejected {
						b.Fatalf("rejected: %v", ev.Err)
					}
				}
				if mode.cfg != nil {
					st := s.CoalesceStats()
					cancelled += float64(st.Cancelled)
					merged += float64(st.Merged)
					saved += float64(st.MessagesSaved)
				}
				b.StartTimer()
			}
			n := float64(b.N)
			b.ReportMetric(msgs/n, "msgs/drain")
			b.ReportMetric(logical/n, "ops/drain")
			if mode.cfg != nil {
				b.ReportMetric(cancelled/n, "coalcancelled/drain")
				b.ReportMetric(merged/n, "coalmerged/drain")
				b.ReportMetric(saved/n, "coalsaved/drain")
			}
		})
	}
}

// BenchmarkAdmission times region admission on its own. held-wave
// submits one 32-op wave, 16 deletions interleaved with 16 insertions,
// one op at a time to a coalescing engine (Window 4) over a churned
// powerlaw-4096. No Tick runs between the submissions, so every op is
// still held and each Submit re-sweeps the whole held wave: this is
// the admission work a wave-driven caller pays before any repair
// starts. The drain that follows is untimed; msgs/wave, the drain's
// message total, pins the decisions the timed sweeps took.
func BenchmarkAdmission(b *testing.B) {
	b.Run("held-wave", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		s := NewSimulation(graph.PreferentialAttachment(4096, 3, rng))
		var churn []Op
		for _, v := range pickBatch(s.LiveNodes(), rng, 256) {
			churn = append(churn, Op{Kind: OpDelete, V: v})
		}
		if err := s.Submit(churn...); err != nil {
			b.Fatal(err)
		}
		if err := s.Drain(); err != nil {
			b.Fatal(err)
		}
		s.Poll()
		s.SetCoalescing(CoalesceConfig{Window: 4})
		next := NodeID(1 << 20)
		var msgs float64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			live := s.LiveNodes()
			picked := pickBatch(live, rng, 16+3*16)
			var wave []Op
			for j := 0; j < 16; j++ {
				nbrs := picked[16+3*j : 16+3*j+3]
				wave = append(wave,
					Op{Kind: OpDelete, V: picked[j]},
					Op{Kind: OpInsert, V: next, Nbrs: nbrs})
				next++
			}
			s.net.ResetStats()
			b.StartTimer()
			for _, op := range wave {
				if err := s.Submit(op); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := s.Drain(); err != nil {
				b.Fatal(err)
			}
			msgs += float64(s.net.Stats().Messages)
			for _, ev := range s.Poll() {
				if ev.Kind == EventOpRejected {
					b.Fatalf("wave op rejected: %v", ev.Err)
				}
			}
			b.StartTimer()
		}
		b.ReportMetric(msgs/float64(b.N), "msgs/wave")
	})
}

// churnedNetwork is the state BenchmarkPhysicalSnapshot and
// BenchmarkVerify measure: powerlaw-2048 after 64 random deletions.
func churnedNetwork(b *testing.B) *Simulation {
	s := NewSimulation(graph.PreferentialAttachment(2048, 3, rand.New(rand.NewSource(7))))
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 64; i++ {
		live := s.LiveNodes()
		if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkPhysicalSnapshot pins the win of the incrementally
// maintained physical graph: snapshotting it versus reconstructing it
// from every record of every processor, on a churned network.
func BenchmarkPhysicalSnapshot(b *testing.B) {
	b.Run("incremental", func(b *testing.B) {
		s := churnedNetwork(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.Physical().NumNodes() == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		s := churnedNetwork(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if s.rebuildPhysical().NumNodes() == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})
}

// BenchmarkVerify times the two verification scopes over the same
// churned network: full is Verify; delta-all marks every processor
// touched (untimed) and runs VerifyDelta(0), the same record checker
// without the global checks.
func BenchmarkVerify(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		s := churnedNetwork(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta-all", func(b *testing.B) {
		s := churnedNetwork(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for _, p := range s.procs {
				p.markTouched()
			}
			b.StartTimer()
			if err := s.VerifyDelta(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
