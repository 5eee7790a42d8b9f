package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Tests for the protocol under per-edge bandwidth limits: the healed
// graph must be identical for every finite cap (only rounds change),
// the star hub repair must expose congestion, and the leader's send
// pacing must shrink the per-edge backlog it causes.

// replayAtBandwidth drives a deterministic insert/delete schedule
// through a simulation with the given cap and returns the final
// simulation plus total messages and rounds.
func replayAtBandwidth(t *testing.T, g0 *graph.Graph, ops int, seed int64, bandwidth int, spread bool) (*Simulation, int, int) {
	t.Helper()
	s := NewSimulation(g0)
	s.SetBandwidth(bandwidth)
	s.SetSpread(spread)
	rng := rand.New(rand.NewSource(seed))
	nextID := NodeID(30_000)
	msgs, rounds := 0, 0
	for i := 0; i < ops; i++ {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		if rng.Float64() < 0.3 {
			v := nextID
			nextID++
			k := 1 + rng.Intn(3)
			if k > len(live) {
				k = len(live)
			}
			var nbrs []NodeID
			for _, idx := range rng.Perm(len(live))[:k] {
				nbrs = append(nbrs, live[idx])
			}
			if err := s.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: insert: %v", i, err)
			}
		} else {
			v := live[rng.Intn(len(live))]
			if err := s.Delete(v); err != nil {
				t.Fatalf("op %d: delete %d (B=%d): %v", i, v, bandwidth, err)
			}
			rs := s.LastRecovery()
			msgs += rs.Messages
			rounds += rs.Rounds
		}
	}
	return s, msgs, rounds
}

// TestBandwidthEquivalenceAcrossB is the core honesty claim: for every
// differential-equivalence topology family, every finite per-edge
// bandwidth converges to the same healed graph as B=∞ with the same
// message count — only the round count may grow.
func TestBandwidthEquivalenceAcrossB(t *testing.T) {
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
		ops  int
	}{
		{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }, 24},
		{"path", func(*rand.Rand) *graph.Graph { return graph.Path(20) }, 20},
		{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }, 24},
		{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }, 28},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }, 28},
	}
	for _, topo := range topologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := int64(0); seed < 2; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(500 + seed)))
				ref, refMsgs, refRounds := replayAtBandwidth(t, g0, topo.ops, 11*seed+1, 0, true)
				for _, B := range []int{1, 3, 16} {
					s, msgs, rounds := replayAtBandwidth(t, g0, topo.ops, 11*seed+1, B, true)
					if !s.Physical().Equal(ref.Physical()) {
						t.Fatalf("seed %d B=%d: healed graph diverges from B=inf", seed, B)
					}
					if msgs != refMsgs {
						t.Errorf("seed %d B=%d: %d messages, want %d (bandwidth must delay, not change, traffic)",
							seed, B, msgs, refMsgs)
					}
					if rounds < refRounds {
						t.Errorf("seed %d B=%d: %d rounds < unlimited %d", seed, B, rounds, refRounds)
					}
					if err := s.Verify(); err != nil {
						t.Fatalf("seed %d B=%d: %v", seed, B, err)
					}
				}
			}
		})
	}
}

// TestStarHubCongestionAndSpread is the headline scenario: deleting
// the star-16 hub at B=1 must register congestion — the simulator is
// finally honest about the repair's per-edge hotspot — and pacing the
// leader's instruction bursts must shrink the deepest edge backlog
// without changing the healed graph.
func TestStarHubCongestionAndSpread(t *testing.T) {
	repair := func(bandwidth int, spread bool) (*Simulation, RecoveryStats) {
		s := NewSimulation(graph.Star(16))
		s.SetBandwidth(bandwidth)
		s.SetSpread(spread)
		if err := s.Delete(0); err != nil {
			t.Fatal(err)
		}
		return s, s.LastRecovery()
	}

	ref, inf := repair(0, true)
	sBurst, burst := repair(1, false)
	sPaced, paced := repair(1, true)

	if burst.CongestionRounds == 0 {
		t.Error("star-16 hub repair at B=1 shows no congestion: the hotspot is invisible")
	}
	if burst.MaxEdgeBacklog == 0 {
		t.Error("star-16 hub repair at B=1 shows no edge backlog")
	}
	if paced.MaxEdgeBacklog >= burst.MaxEdgeBacklog {
		t.Errorf("leader pacing did not shrink the backlog: paced %d >= burst %d",
			paced.MaxEdgeBacklog, burst.MaxEdgeBacklog)
	}
	if burst.Messages != inf.Messages || paced.Messages != inf.Messages {
		t.Errorf("message counts diverge: inf %d, burst %d, paced %d",
			inf.Messages, burst.Messages, paced.Messages)
	}
	if burst.Rounds < inf.Rounds || paced.Rounds < inf.Rounds {
		t.Errorf("finite bandwidth took fewer rounds than unlimited: inf %d, burst %d, paced %d",
			inf.Rounds, burst.Rounds, paced.Rounds)
	}
	for name, s := range map[string]*Simulation{"burst": sBurst, "paced": sPaced} {
		if !s.Physical().Equal(ref.Physical()) {
			t.Errorf("%s: healed graph diverges from B=inf", name)
		}
		if err := s.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if inf.CongestionRounds != 0 || inf.QueuedWords != 0 || inf.MaxEdgeBacklog != 0 {
		t.Errorf("unlimited bandwidth reported congestion: %+v", inf)
	}
}

// TestBandwidthBatchEquivalence: batches under a finite cap heal to
// the same graph as the sequential core reference, in both delivery
// modes.
func TestBandwidthBatchEquivalence(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		g0 := graph.PreferentialAttachment(28, 3, rand.New(rand.NewSource(91)))
		s := NewSimulation(g0)
		s.SetParallel(parallel)
		s.SetBandwidth(2)
		e := core.NewEngine(g0)
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 6; i++ {
			live := s.LiveNodes()
			if len(live) == 0 {
				break
			}
			batch := pickBatch(live, rng, 1+rng.Intn(4))
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("parallel=%v batch %v: %v", parallel, batch, err)
			}
			if err := e.DeleteBatch(batch); err != nil {
				t.Fatalf("core batch %v: %v", batch, err)
			}
			if !s.Physical().Equal(e.Physical()) {
				t.Fatalf("parallel=%v batch %v: healed graphs diverge", parallel, batch)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBandwidthSequentialVsParallelDelivery: with a finite cap both
// delivery modes must still produce identical graphs and stats —
// congestion counters included.
func TestBandwidthSequentialVsParallelDelivery(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 3, rand.New(rand.NewSource(33)))
	seq := NewSimulation(g0)
	seq.SetBandwidth(1)
	par := NewSimulation(g0)
	par.SetBandwidth(1)
	par.SetParallel(true)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5; i++ {
		live := seq.LiveNodes()
		if len(live) == 0 {
			break
		}
		batch := pickBatch(live, rng, 1+rng.Intn(4))
		if err := seq.DeleteBatch(batch); err != nil {
			t.Fatalf("sequential: %v", err)
		}
		if err := par.DeleteBatch(batch); err != nil {
			t.Fatalf("parallel: %v", err)
		}
		if seq.LastBatch() != par.LastBatch() {
			t.Fatalf("batch %v: stats diverge between delivery modes:\n%+v\n%+v",
				batch, seq.LastBatch(), par.LastBatch())
		}
		if !seq.Physical().Equal(par.Physical()) {
			t.Fatalf("batch %v: graphs diverge between delivery modes", batch)
		}
	}
}

// TestPerEdgePacingSlowLink is the per-edge outbox budget claim: with
// a generous global cap but one narrow link out of the leader, the
// pacing must trickle that link at ITS budget — the slow edge collects
// (almost) no backlog — while the bursty mode piles the whole burst
// onto it. Before per-edge budgets the pacer consulted the global cap
// only, so the slow link backlogged even with spread on.
func TestPerEdgePacingSlowLink(t *testing.T) {
	// Star-16 hub deletion: the leader (ray 1) fans the merge plan out
	// to every ray. Ray 9's inbound link is 1 word/round; everything
	// else is capped at 16 (wide enough to never congest).
	run := func(spread bool) (*Simulation, RecoveryStats) {
		s := NewSimulation(graph.Star(16))
		s.SetBandwidth(16)
		s.SetEdgeBandwidth(1, 9, 1)
		s.SetSpread(spread)
		if err := s.Delete(0); err != nil {
			t.Fatal(err)
		}
		return s, s.LastRecovery()
	}
	sPaced, paced := run(true)
	sBurst, burst := run(false)

	if burst.MaxEdgeBacklog == 0 {
		t.Fatal("bursty run shows no backlog on the slow link: the scenario is vacuous")
	}
	if paced.MaxEdgeBacklog >= burst.MaxEdgeBacklog {
		t.Errorf("per-edge pacing did not shrink the slow link's backlog: paced %d >= burst %d",
			paced.MaxEdgeBacklog, burst.MaxEdgeBacklog)
	}
	// The paced leader holds every send beyond the slow edge's own
	// budget in its outbox, so at most one in-flight message can ever
	// be deferred on that edge.
	if paced.MaxEdgeBacklog > wordsCreateHelper {
		t.Errorf("paced slow-link backlog %d words exceeds a single instruction (%d): pacing is not consulting the per-edge cap",
			paced.MaxEdgeBacklog, wordsCreateHelper)
	}
	if paced.Messages != burst.Messages {
		t.Errorf("messages diverge: paced %d vs burst %d", paced.Messages, burst.Messages)
	}
	if !sPaced.Physical().Equal(sBurst.Physical()) {
		t.Error("healed graphs diverge between pacing modes")
	}
	for name, s := range map[string]*Simulation{"paced": sPaced, "burst": sBurst} {
		if err := s.Verify(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestNodeCapEquivalence: node-level capacity clamps (the EXP-HET slow
// access links) must — like every bandwidth configuration — delay
// traffic, never change it: same healed graph, same messages, at least
// as many rounds as the unlimited twin.
func TestNodeCapEquivalence(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 3, rand.New(rand.NewSource(77)))
	ref := NewSimulation(g0)
	slow := NewSimulation(g0)
	for i, v := range slow.LiveNodes() {
		if i%3 == 0 {
			slow.SetNodeBandwidth(v, 1)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 10; i++ {
		live := ref.LiveNodes()
		v := live[rng.Intn(len(live))]
		if err := ref.Delete(v); err != nil {
			t.Fatal(err)
		}
		if err := slow.Delete(v); err != nil {
			t.Fatal(err)
		}
		rr, sr := ref.LastRecovery(), slow.LastRecovery()
		if sr.Messages != rr.Messages {
			t.Fatalf("delete %d: %d messages under node caps, want %d", v, sr.Messages, rr.Messages)
		}
		if sr.Rounds < rr.Rounds {
			t.Fatalf("delete %d: %d rounds under node caps < unlimited %d", v, sr.Rounds, rr.Rounds)
		}
		if !slow.Physical().Equal(ref.Physical()) {
			t.Fatalf("delete %d: healed graphs diverge under node caps", v)
		}
	}
	if err := slow.Verify(); err != nil {
		t.Fatal(err)
	}
}
