package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/channet"
	"repro/internal/graph"
)

// Convergence and detection tests for the corruption injector and the
// self-stabilizing audit layer. The differential oracle throughout is
// an uncorrupted twin simulation driven through the identical op
// schedule: after the audit heals an injection, the corrupted run must
// end Verify-clean AND bit-identical (physical network and G′) to the
// twin — the audit restored the exact configuration, not merely a
// legal one.

// auditTopologies mirrors the 5 topology families every differential
// suite in this repo covers (transport_equiv_test keeps its own copy
// in package dist_test).
var auditTopologies = []struct {
	name string
	gen  func(rng *rand.Rand) *graph.Graph
}{
	{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }},
	{"path", func(*rand.Rand) *graph.Graph { return graph.Path(20) }},
	{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }},
	{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }},
	{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }},
}

// auditPair couples a corruptible simulation (audit on; simnet or
// seeded channet) with its uncorrupted simnet twin, driving both
// through the same deterministic op schedule.
type auditPair struct {
	t    *testing.T
	s    *Simulation // audited, corrupted
	twin *Simulation // never corrupted, audit off
	rng  *rand.Rand
	next NodeID
}

func newAuditPair(t *testing.T, gen func(*rand.Rand) *graph.Graph, topoSeed int64, backend string, cfg audit.Config) *auditPair {
	t.Helper()
	var s *Simulation
	g0 := gen(rand.New(rand.NewSource(topoSeed)))
	switch backend {
	case "sim":
		s = NewSimulation(g0)
	case "chan":
		s = NewSimulationOn(g0, channet.NewSeeded(topoSeed+1))
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	if err := s.EnableAudit(cfg); err != nil {
		t.Fatal(err)
	}
	twin := NewSimulation(gen(rand.New(rand.NewSource(topoSeed))))
	return &auditPair{t: t, s: s, twin: twin, rng: rand.New(rand.NewSource(topoSeed * 7)), next: 1 << 19}
}

// deleteOne picks one live node — the highest-physical-degree of a few
// random candidates, so hubs (the only helper factories on a star) die
// early and Reconstruction Trees with internal nodes appear fast — and
// deletes it from both simulations.
func (a *auditPair) deleteOne() {
	a.t.Helper()
	live := a.s.LiveNodes()
	if len(live) <= 4 {
		return
	}
	v := live[a.rng.Intn(len(live))]
	for i := 0; i < 2; i++ {
		c := live[a.rng.Intn(len(live))]
		if a.s.PhysicalDegree(c) > a.s.PhysicalDegree(v) {
			v = c
		}
	}
	if err := a.s.Delete(v); err != nil {
		a.t.Fatalf("delete %d: %v", v, err)
	}
	if err := a.twin.Delete(v); err != nil {
		a.t.Fatalf("twin delete %d: %v", v, err)
	}
}

// deleteHub deletes the globally highest-degree live node from both —
// the one deletion guaranteed to build a Reconstruction Tree with
// internal helpers on every topology family (on a star, nothing else
// ever does).
func (a *auditPair) deleteHub() {
	a.t.Helper()
	live := a.s.LiveNodes()
	if len(live) <= 4 {
		return
	}
	v := live[0]
	for _, c := range live[1:] {
		if a.s.PhysicalDegree(c) > a.s.PhysicalDegree(v) {
			v = c
		}
	}
	if err := a.s.Delete(v); err != nil {
		a.t.Fatalf("delete hub %d: %v", v, err)
	}
	if err := a.twin.Delete(v); err != nil {
		a.t.Fatalf("twin delete hub %d: %v", v, err)
	}
}

// insertOne inserts a fresh node with 1–2 live neighbors into both.
func (a *auditPair) insertOne() {
	a.t.Helper()
	live := a.s.LiveNodes()
	if len(live) == 0 {
		return
	}
	k := 1 + a.rng.Intn(2)
	if k > len(live) {
		k = len(live)
	}
	var nbrs []NodeID
	for _, idx := range a.rng.Perm(len(live))[:k] {
		nbrs = append(nbrs, live[idx])
	}
	v := a.next
	a.next++
	if err := a.s.Insert(v, nbrs); err != nil {
		a.t.Fatalf("insert %d: %v", v, err)
	}
	if err := a.twin.Insert(v, nbrs); err != nil {
		a.t.Fatalf("twin insert %d: %v", v, err)
	}
}

// pump advances both simulations n transport pulses, repairs and audit
// passes progressing together.
func (a *auditPair) pump(n int) {
	for i := 0; i < n; i++ {
		a.s.Tick()
		a.twin.Tick()
	}
}

// drain runs both simulations to an idle engine, failing the test if
// either still has work after bound pulses.
func (a *auditPair) drain(bound int) {
	a.t.Helper()
	for i := 0; i < bound && !(a.s.Idle() && a.twin.Idle()); i++ {
		a.s.Tick()
		a.twin.Tick()
	}
	if !a.s.Idle() {
		a.t.Fatalf("corrupted sim failed to drain (pending %d, inflight %d)", a.s.PendingOps(), a.s.InFlight())
	}
	if !a.twin.Idle() {
		a.t.Fatal("twin failed to drain")
	}
	for _, sim := range [2]*Simulation{a.s, a.twin} {
		for _, ev := range sim.Poll() {
			if ev.Kind == EventOpRejected {
				a.t.Fatalf("op %v rejected: %v", ev.Op, ev.Err)
			}
		}
	}
}

// TestAuditConvergence: every corruption mode × the 5 topology
// families × {simnet, seeded channet}. Corruption is injected while an
// asynchronously-submitted deletion is still in flight; the audit must
// heal it within a bounded number of passes (the fixed 8-period pump
// IS the bound), churn continues afterwards, and the final state must
// be Verify-clean and equal to the uncorrupted twin.
func TestAuditConvergence(t *testing.T) {
	const period = 32
	for _, topo := range auditTopologies {
		for _, mode := range CorruptModes {
			for _, backend := range []string{"sim", "chan"} {
				topo, mode, backend := topo, mode, backend
				t.Run(fmt.Sprintf("%s/%s/%s", topo.name, mode, backend), func(t *testing.T) {
					t.Parallel()
					if mode == CorruptClock && backend == "sim" {
						t.Skip("simnet has no per-node clock to skew")
					}
					a := newAuditPair(t, topo.gen, 1000, backend, audit.Config{Period: period, Batch: 1 << 12})
					a.deleteHub()
					for i := 0; i < 4; i++ {
						a.deleteOne()
					}
					a.insertOne()

					// Mid-churn injection: submit a deletion asynchronously,
					// let it get airborne, then corrupt. The heal-window pump
					// keeps the adversary quiet for a few audit periods —
					// pending regions are RT-closed, so the in-flight repair
					// cannot read the perturbed records while the audit fixes
					// them underneath.
					crng := rand.New(rand.NewSource(99))
					injected := false
					var rep CorruptReport
					for attempt := 0; attempt < 6 && !injected; attempt++ {
						live := a.s.LiveNodes()
						if len(live) <= 4 {
							break
						}
						// A deletion's RT-closed region can cover every record
						// holder when one big Reconstruction Tree dominates
						// (injection excludes in-region processors), so odd
						// attempts fly an insert instead — its region is tiny.
						var op Op
						if attempt%2 == 0 {
							op = Op{Kind: OpDelete, V: live[a.rng.Intn(len(live))]}
						} else {
							op = Op{Kind: OpInsert, V: a.next, Nbrs: []NodeID{live[a.rng.Intn(len(live))]}}
							a.next++
						}
						if err := a.s.Submit(op); err != nil {
							t.Fatal(err)
						}
						if err := a.twin.Submit(op); err != nil {
							t.Fatal(err)
						}
						a.pump(2)
						rep, injected = a.s.Corrupt(mode, crng)
						a.pump(8 * period)
						a.drain(1 << 15)
					}
					if !injected {
						t.Skipf("mode %v found no eligible state in this campaign", mode)
					}

					// Churn continues on the healed configuration.
					a.deleteOne()
					a.insertOne()
					a.deleteOne()
					a.pump(6 * period)
					a.drain(1 << 15)

					if err := a.s.Verify(); err != nil {
						t.Fatalf("after healing %v on %d (%s): %v", rep.Mode, rep.Victim, rep.Detail, err)
					}
					if err := a.twin.Verify(); err != nil {
						t.Fatalf("twin unhealthy (test harness bug): %v", err)
					}
					if !a.s.Physical().Equal(a.twin.Physical()) {
						t.Fatalf("healed physical network diverged from uncorrupted twin after %v on %d", rep.Mode, rep.Victim)
					}
					if !a.s.GPrime().Equal(a.twin.GPrime()) {
						t.Fatal("G' diverged from uncorrupted twin")
					}
					if st := a.s.AuditStats(); st.Passes == 0 {
						t.Fatal("audit never ran a pass")
					}
				})
			}
		}
	}
}

// corruptWithChurn tries to inject mode, churning a little more
// between attempts so the eligible state (helpers, dead epochs,
// parented records) the mode needs actually exists.
func corruptWithChurn(t *testing.T, s *Simulation, mode CorruptMode, crng, rng *rand.Rand) (CorruptReport, bool) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		if rep, ok := s.Corrupt(mode, crng); ok {
			return rep, true
		}
		if attempt == 4 {
			return CorruptReport{}, false
		}
		live := s.LiveNodes()
		if len(live) <= 4 {
			return CorruptReport{}, false
		}
		v := live[rng.Intn(len(live))]
		for i := 0; i < 2; i++ {
			if c := live[rng.Intn(len(live))]; s.PhysicalDegree(c) > s.PhysicalDegree(v) {
				v = c
			}
		}
		if err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCorruptionCaughtWithoutAudit: with the audit layer off, every
// injection mode must be detected by the central checkers — the full
// Verify, and VerifyDelta once the victim is in the touched set. This
// is the ground truth the audit's distributed detection mirrors, and
// it covers the engine-state modes (pending-op footprints, Lamport
// clocks) the older record-corruption table in verify_delta_test does
// not reach.
func TestCorruptionCaughtWithoutAudit(t *testing.T) {
	for _, mode := range CorruptModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(31))
			g0 := graph.PreferentialAttachment(28, 2, rng)
			var s *Simulation
			if mode == CorruptClock {
				// Only channet has per-node Lamport clocks to skew;
				// its Validate hook is what Verify consults.
				s = NewSimulationOn(g0, channet.NewSeeded(9))
			} else {
				s = NewSimulation(g0)
			}
			for i := 0; i < 6; i++ {
				live := s.LiveNodes()
				v := live[rng.Intn(len(live))]
				for j := 0; j < 2; j++ {
					if c := live[rng.Intn(len(live))]; s.PhysicalDegree(c) > s.PhysicalDegree(v) {
						v = c
					}
				}
				if err := s.Delete(v); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("pre-injection: %v", err)
			}
			crng := rand.New(rand.NewSource(7))
			rep, ok := corruptWithChurn(t, s, mode, crng, rng)
			if !ok {
				t.Skipf("mode %v found no eligible state", mode)
			}
			// The injector is silent — nothing is logged or touched — so
			// hand the delta pass the victim, the way a real incremental
			// sweep would eventually sample it.
			if p, alive := s.procs[rep.Victim]; alive {
				p.markTouched()
			}
			if err := s.VerifyDelta(4); err == nil {
				t.Errorf("VerifyDelta missed %v on %d (%s)", rep.Mode, rep.Victim, rep.Detail)
			}
			if err := s.Verify(); err == nil {
				t.Fatalf("Verify missed %v on %d (%s)", rep.Mode, rep.Victim, rep.Detail)
			}
		})
	}
}

// FuzzStateCorruption decodes a byte string into an interleaved
// op-and-corruption schedule and replays it differentially: the
// audited run absorbs every injection the schedule lands, and must end
// Verify-clean and bit-identical to the uncorrupted twin. Byte pairs
// decode to (action, operand): action%4 ∈ {0: insert, 1,2: delete,
// 3: corrupt with mode operand%|modes|}.
func FuzzStateCorruption(f *testing.F) {
	// One corpus seed per corruption mode: churn, inject, churn.
	for i := range CorruptModes {
		f.Add([]byte{1, 7, 1, 11, 2, 3, 3, byte(i), 1, 5, 0, 9})
	}
	// Mixed churn between injections from all three layers: a record
	// field, an engine footprint and the connectivity certificate.
	f.Add([]byte{0, 1, 0, 2, 1, 4, 3, 0, 2, 9, 3, 8, 0, 6, 3, 10})
	// Every mode back to back.
	f.Add([]byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8, 3, 9, 3, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			t.Skip("schedule too long")
		}
		const period = 16
		a := newAuditPair(t, func(rng *rand.Rand) *graph.Graph {
			return graph.PreferentialAttachment(24, 2, rng)
		}, 500, "sim", audit.Config{Period: period, Batch: 1 << 12})
		crng := rand.New(rand.NewSource(13))
		for i := 0; i+1 < len(data); i += 2 {
			action, operand := data[i], data[i+1]
			live := a.s.LiveNodes()
			switch action % 4 {
			case 0:
				if len(live) == 0 {
					continue
				}
				v := a.next
				a.next++
				nbrs := []NodeID{live[int(operand)%len(live)]}
				if err := a.s.Insert(v, nbrs); err != nil {
					t.Fatal(err)
				}
				if err := a.twin.Insert(v, nbrs); err != nil {
					t.Fatal(err)
				}
			case 1, 2:
				if len(live) <= 4 {
					continue
				}
				v := live[int(operand)%len(live)]
				if err := a.s.Delete(v); err != nil {
					t.Fatal(err)
				}
				if err := a.twin.Delete(v); err != nil {
					t.Fatal(err)
				}
			case 3:
				mode := CorruptModes[int(operand)%len(CorruptModes)]
				if _, ok := a.s.Corrupt(mode, crng); ok {
					// Heal window: long enough for confirm-twice repairs
					// and the engine-footprint sweep (2·period+8).
					a.pump(6 * period)
				}
			}
		}
		a.pump(6 * period)
		a.drain(1 << 15)
		if err := a.s.Verify(); err != nil {
			t.Fatalf("audited run not healed: %v", err)
		}
		if !a.s.Physical().Equal(a.twin.Physical()) {
			t.Fatal("healed physical network diverged from uncorrupted twin")
		}
		if !a.s.GPrime().Equal(a.twin.GPrime()) {
			t.Fatal("G' diverged from uncorrupted twin")
		}
	})
}
