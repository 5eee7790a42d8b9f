package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/graph"
)

// Differential harness for the incremental connectivity certificate:
// after EVERY operation of a mixed campaign, both component trackers
// are audited against from-scratch BFS partitions (checkCertFull wraps
// Components.Check) and the O(1) count-equality proof must agree with
// the independent O(n) connectivity sweep. Any drift between the
// incrementally maintained labels and the true partition fails here at
// the first operation that introduced it.

func certCampaign(t *testing.T, seed int64, n, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSimulation(graph.PreferentialAttachment(n, 3, rng))
	nextID := NodeID(70_000)
	for i := 0; i < ops; i++ {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		switch {
		case rng.Float64() < 0.35:
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
				t.Fatalf("op %d insert: %v", i, err)
			}
		case rng.Float64() < 0.25:
			batch := pickBatch(live, rng, 1+rng.Intn(4))
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d batch: %v", i, err)
			}
		default:
			if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("op %d delete: %v", i, err)
			}
		}
		if err := s.checkCertFull(); err != nil {
			t.Fatalf("op %d: certificate diverged from rebuilt partition: %v", i, err)
		}
		if err := s.checkConnectivity(s.phys); err != nil {
			t.Fatalf("op %d: certificate passed but BFS sweep disagrees: %v", i, err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateMatchesRebuildEveryOp(t *testing.T) {
	for _, c := range []struct {
		seed   int64
		n, ops int
	}{
		{1, 32, 60},
		{2, 48, 60},
		{3, 64, 40},
	} {
		certCampaign(t, c.seed, c.n, c.ops)
	}
}

// certCampaignAsync is certCampaign's Submit-wave variant: waves of
// ops go in through Submit while repairs are in flight, and whenever
// Tick reports the engine idle the certificate must hold nothing
// unsettled, match the rebuilt partitions, and agree with the BFS
// connectivity sweep — the quiescent states the settle-at-idle
// contract promises are exact.
func certCampaignAsync(t *testing.T, seed int64, n, ops int, coalesce bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g0 := graph.PreferentialAttachment(n, 3, rng)
	schedule := genSchedule(g0, ops, seed)
	s := NewSimulation(g0)
	if coalesce {
		s.SetCoalescing(CoalesceConfig{Window: 4})
	}
	idle := 0
	check := func(at string) {
		t.Helper()
		idle++
		if k := s.physCC.Unsettled(); k != 0 {
			t.Fatalf("seed %d %s: %d removal endpoints unsettled at idle", seed, at, k)
		}
		if err := s.checkCertFull(); err != nil {
			t.Fatalf("seed %d %s: certificate diverged from rebuilt partition: %v", seed, at, err)
		}
		if err := s.checkConnectivity(s.phys); err != nil {
			t.Fatalf("seed %d %s: certificate passed but BFS sweep disagrees: %v", seed, at, err)
		}
	}
	for i := 0; i < len(schedule); {
		w := 1 + rng.Intn(8)
		var wave []Op
		for ; w > 0 && i < len(schedule); w-- {
			wave = append(wave, schedule[i].op)
			i++
		}
		if err := s.Submit(wave...); err != nil {
			t.Fatal(err)
		}
		// Mostly submit the next wave mid-flight; every third wave or
		// so, tick on until the engine goes idle.
		untilIdle := rng.Intn(3) == 0
		for r := rng.Intn(12); untilIdle || r > 0; r-- {
			if !s.Tick() {
				check(fmt.Sprintf("op %d", i))
				break
			}
		}
	}
	for s.Tick() {
	}
	check("end")
	for _, ev := range s.Poll() {
		if ev.Kind == EventOpRejected {
			t.Fatalf("seed %d: op rejected: %v", seed, ev.Err)
		}
	}
	if idle < 2 {
		t.Fatalf("seed %d: engine idle only %d times; the campaign checked nothing mid-run", seed, idle)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestCertificateSettledAtIdle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		certCampaignAsync(t, seed, 48, 80, seed%2 == 0)
	}
}

// TestCertificateRefinementSticky pins the refinement invariant's
// plumbing: a physical edge materializing between G′-disconnected
// processors must poison the certificate until the audit heals it.
func TestCertificateRefinementSticky(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := NewSimulation(graph.PreferentialAttachment(16, 2, rng))
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// Simulate the violation directly: forge a G′ label so some pair
	// looks disconnected, then report a NEW physical edge between them
	// (an existing edge would only gain multiplicity and skip the
	// materialization check).
	live := s.LiveNodes()
	var a, b NodeID
	found := false
	for _, u := range live {
		for _, v := range live {
			if u != v && !s.phys.HasEdge(u, v) {
				a, b, found = u, v, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("physical graph is complete; no fresh edge to forge")
	}
	s.gpCC.ForgeLabel(a)
	s.physAdd(a, b)
	if s.certErr == nil {
		t.Fatal("refinement violation not recorded")
	}
	if err := s.checkCertCounts(); err == nil {
		t.Fatal("poisoned certificate passed the O(1) check")
	}
	s.physDel(a, b) // undo the extra image
	// Heal: rebuild both trackers the way the audit sweep does.
	s.physCC.Relabel()
	s.gpCC.Relabel()
	s.certErr = nil
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCertSweepOnePeriod pins the audit layer's detection bound on the
// certificate: a label forged on any live processor that has a
// neighbour, in physCC or in gpCC, is caught and healed within one
// audit period of idle ticks, whichever processor it is and wherever
// the sweep's cursors stand. The O(1) count check cannot see a forged
// label (ForgeLabel does no bookkeeping), so only the paced label
// sweep catches it. One network has more processors than the audit
// period and one fewer; each first loses two processors and gains one,
// so the trackers hold vacant and dead slots the sweep must pass over.
// With nothing forged, the same ticks detect nothing.
func TestCertSweepOnePeriod(t *testing.T) {
	cases := []struct {
		name   string
		g0     func() *graph.Graph
		period int
	}{
		{"grid-100/period-16", func() *graph.Graph { return graph.Grid(10, 10) }, 16},
		{"powerlaw-20/period-48", func() *graph.Graph {
			return graph.PreferentialAttachment(20, 2, rand.New(rand.NewSource(5)))
		}, 48},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Simulation {
				s := NewSimulation(tc.g0())
				if err := s.EnableAudit(audit.Config{Period: tc.period, Batch: 1 << 12}); err != nil {
					t.Fatal(err)
				}
				live := s.LiveNodes()
				for _, v := range []NodeID{live[1], live[len(live)/2]} {
					if err := s.Delete(v); err != nil {
						t.Fatal(err)
					}
				}
				live = s.LiveNodes()
				if err := s.Insert(1000, []NodeID{live[0], live[len(live)-1]}); err != nil {
					t.Fatal(err)
				}
				return s
			}
			idleTicks := func(s *Simulation, k int) {
				for idle := 0; idle < k; {
					if !s.Tick() {
						idle++
					}
				}
			}
			detected := func(s *Simulation, before audit.Stats) (int, int) {
				after := s.AuditStats()
				return after.Mismatches - before.Mismatches, after.Repairs - before.Repairs
			}

			s := build()
			before := s.AuditStats()
			idleTicks(s, 3*tc.period)
			if m, r := detected(s, before); m != 0 || r != 0 {
				t.Fatalf("nothing forged: %d mismatches, %d repairs", m, r)
			}

			for _, tracker := range []string{"physical", "G'"} {
				checked := 0
				for i, v := range s.LiveNodes() {
					s := build()
					cc, g := s.physCC, s.phys
					if tracker == "G'" {
						cc, g = s.gpCC, s.gprime
					}
					if g.Degree(v) == 0 {
						continue
					}
					idleTicks(s, i%tc.period) // start the sweep anywhere
					before := s.AuditStats()
					cc.ForgeLabel(v)
					idleTicks(s, tc.period)
					if m, r := detected(s, before); m != 1 || r != 1 {
						t.Fatalf("%s label forged on %d: %d mismatches, %d repairs after one period of idle ticks, want 1 and 1",
							tracker, v, m, r)
					}
					if err := s.Verify(); err != nil {
						t.Fatalf("%s label forged on %d: after the heal: %v", tracker, v, err)
					}
					checked++
				}
				if checked == 0 {
					t.Fatalf("no live processor with a %s neighbour", tracker)
				}
			}
		})
	}
}
