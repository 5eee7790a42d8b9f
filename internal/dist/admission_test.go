package dist

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// Admission pins. The differential suites accept any sound admission
// order — a different launch schedule heals to the same graph — so
// they cannot show that an admission rewrite kept every decision.
// TestAdmissionDecisionsPinned can: it digests what the engine
// reported and when, over fixed campaigns, against a value recorded
// before the rewrite. TestAdmissionStateMatchesRecompute checks the
// state admission decides from: the cached footprints and the claim
// table.

// admissionDigest accumulates an FNV-64a digest of engine outcomes.
type admissionDigest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *admissionDigest) put(xs ...int) {
	for _, x := range xs {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(int64(x)))
		d.h.Write(d.buf[:])
	}
}

// observe installs an observer folding every event's Kind, Seq, V and
// Latency, plus each repair's Messages and Rounds, into the digest.
func (d *admissionDigest) observe(s *Simulation) {
	s.SetObserver(func(ev Event) {
		d.put(int(ev.Kind), ev.Seq, int(ev.V), ev.Latency)
		if ev.Kind == EventRepairDone {
			d.put(ev.Repair.Messages, ev.Repair.Rounds)
		}
	})
}

// graph folds a graph's sorted node and edge lists into the digest.
func (d *admissionDigest) graph(g *graph.Graph) {
	d.put(g.NumNodes())
	for _, v := range g.Nodes() {
		d.put(int(v))
	}
	for _, e := range g.Edges() {
		d.put(int(e.U), int(e.V))
	}
}

// finish folds the drained engine's healed physical network and G′.
func (d *admissionDigest) finish(t *testing.T, s *Simulation) {
	t.Helper()
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	d.graph(s.Physical())
	d.graph(s.GPrime())
}

// TestAdmissionDecisionsPinned replays fixed campaigns through region
// admission — churn-heavy schedules with coalescing off and at Window
// 4, pipelined deletions submitted up front, and one DeleteBatch — and
// compares one digest of every event (Kind, Seq, V, Latency, repair
// Messages and Rounds) and the healed graphs against the recorded
// value. A launch moved by a single round changes some Latency; a
// different merge or cancel changes the events themselves.
func TestAdmissionDecisionsPinned(t *testing.T) {
	const want = uint64(0x4ee193e75edc28f6)
	d := &admissionDigest{h: fnv.New64a()}
	base := graph.PreferentialAttachment(256, 3, rand.New(rand.NewSource(42)))
	for seed := int64(1); seed <= 6; seed++ {
		schedule := genCoalesceSchedule(base, 48, seed)
		for _, coalesce := range []bool{false, true} {
			s := NewSimulation(base)
			if coalesce {
				s.SetCoalescing(CoalesceConfig{Window: 4})
			}
			d.observe(s)
			for _, so := range schedule {
				if err := s.Submit(so.op); err != nil {
					t.Fatal(err)
				}
				for r := 0; r < so.delay; r++ {
					s.Tick()
				}
			}
			d.finish(t, s)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		s := NewSimulation(base)
		d.observe(s)
		var ops []Op
		for _, v := range pickBatch(s.LiveNodes(), rand.New(rand.NewSource(seed)), 16) {
			ops = append(ops, Op{Kind: OpDelete, V: v})
		}
		if err := s.Submit(ops...); err != nil {
			t.Fatal(err)
		}
		d.finish(t, s)
	}
	s := NewSimulation(base)
	d.observe(s)
	if err := s.DeleteBatch(pickBatch(s.LiveNodes(), rand.New(rand.NewSource(7)), 16)); err != nil {
		t.Fatal(err)
	}
	d.finish(t, s)
	if got := d.h.Sum64(); got != want {
		t.Fatalf("admission digest %#016x, recorded %#016x: some admission decision changed", got, want)
	}
}

// checkedNet runs a check before every transport step: at the start of
// each pulse, including the pulses a blocking DeleteBatch or Drain
// runs internally, where the test cannot reach between Ticks.
type checkedNet struct {
	transport.Transport
	check func()
}

func (c *checkedNet) Step() int {
	c.check()
	return c.Transport.Step()
}

// checkAdmissionState asserts that every pending deletion whose
// footprint is cached at the current state generation holds exactly
// what deleteRegion computes now, and that the claim table maps every
// processor of every in-flight region, and nothing else, to that
// repair's epoch.
func checkAdmissionState(t *testing.T, s *Simulation, where string) {
	t.Helper()
	for _, po := range s.pending {
		if po.op.Kind != OpDelete || po.region == nil || po.regionGen != s.stateGen || !s.Alive(po.op.V) {
			continue
		}
		cached := slices.Clone(po.region)
		fresh := s.deleteRegion(po.op.V)
		slices.Sort(cached)
		slices.Sort(fresh)
		if !slices.Equal(cached, fresh) {
			t.Fatalf("%s: delete %d (seq %d): region cached at generation %d is %v, recomputed %v",
				where, po.op.V, po.seq, po.regionGen, cached, fresh)
		}
	}
	want := make(map[NodeID]NodeID)
	for e, fl := range s.inflight {
		for _, x := range fl.region {
			want[x] = e
		}
	}
	if !maps.Equal(want, s.claims) {
		t.Fatalf("%s: claim table %v, in-flight regions %v", where, s.claims, want)
	}
}

// TestAdmissionStateMatchesRecompute drives mixed campaigns over the 5
// topology families — churn-heavy schedules with coalescing off, at
// Window 4, and at Window 4 with a MaxHeld small enough that holds
// flush mid-wave, each followed by one DeleteBatch burst; then one
// campaign per family with the audit on and faults injected mid-churn
// — and checks the cached admission state after every Submit, every
// Tick and every Corrupt, and at the start of every pulse.
func TestAdmissionStateMatchesRecompute(t *testing.T) {
	configs := []struct {
		name string
		cfg  *CoalesceConfig
	}{
		{"off", nil},
		{"window4", &CoalesceConfig{Window: 4}},
		{"window4-flush", &CoalesceConfig{Window: 4, MaxHeld: 3}},
	}
	newSim := func(t *testing.T, g0 *graph.Graph) *Simulation {
		net := &checkedNet{Transport: simnet.New()}
		s := NewSimulationOn(g0, net)
		net.check = func() { checkAdmissionState(t, s, "pulse") }
		return s
	}
	for _, topo := range auditTopologies {
		for _, c := range configs {
			topo, c := topo, c
			t.Run(topo.name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 3; seed++ {
					g0 := topo.gen(rand.New(rand.NewSource(seed)))
					s := newSim(t, g0)
					if c.cfg != nil {
						s.SetCoalescing(*c.cfg)
					}
					for _, so := range genCoalesceSchedule(g0, 40, seed) {
						if err := s.Submit(so.op); err != nil {
							t.Fatal(err)
						}
						checkAdmissionState(t, s, "submit")
						for r := 0; r < so.delay; r++ {
							s.Tick()
							checkAdmissionState(t, s, "tick")
						}
					}
					if err := s.Drain(); err != nil {
						t.Fatal(err)
					}
					batch := pickBatch(s.LiveNodes(), rand.New(rand.NewSource(seed)), 6)
					if err := s.DeleteBatch(batch); err != nil {
						t.Fatal(err)
					}
					checkAdmissionState(t, s, "batch")
				}
			})
		}
		topo := topo
		t.Run(topo.name+"/corrupt-audit", func(t *testing.T) {
			t.Parallel()
			const period = 16
			g0 := topo.gen(rand.New(rand.NewSource(4)))
			s := newSim(t, g0)
			if err := s.EnableAudit(audit.Config{Period: period, Batch: 1 << 12}); err != nil {
				t.Fatal(err)
			}
			s.SetCoalescing(CoalesceConfig{Window: 4})
			tick := func(n int) {
				for i := 0; i < n; i++ {
					s.Tick()
					checkAdmissionState(t, s, "tick")
				}
			}
			crng := rand.New(rand.NewSource(13))
			for i, so := range genCoalesceSchedule(g0, 30, 4) {
				if err := s.Submit(so.op); err != nil {
					t.Fatal(err)
				}
				checkAdmissionState(t, s, "submit")
				tick(so.delay)
				if i%5 == 4 {
					tick(2)
					mode := CorruptModes[(i/5)%len(CorruptModes)]
					if _, ok := s.Corrupt(mode, crng); ok {
						checkAdmissionState(t, s, "corrupt "+mode.String())
						// Heal window, as in FuzzStateCorruption: long
						// enough for the engine-footprint sweep.
						tick(6 * period)
					}
				}
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A hold flush applies an insert in the same state generation in
	// which a later deletion's footprint was cached, and that deletion
	// stays blocked. On Path(8) the repair of 1 claims {0, 1, 2}: the
	// insert of 100 onto 3 lies outside the claim, the deletion of 3
	// overlaps it, and the third held op triggers the flush.
	t.Run("path/flush-insert", func(t *testing.T) {
		s := newSim(t, graph.Path(8))
		s.SetCoalescing(CoalesceConfig{Window: 4, MaxHeld: 3})
		submit := func(op Op) {
			if err := s.Submit(op); err != nil {
				t.Fatal(err)
			}
			checkAdmissionState(t, s, "submit "+op.String())
		}
		submit(Op{Kind: OpDelete, V: 1})
		for s.InFlight() == 0 {
			s.Tick()
			checkAdmissionState(t, s, "tick")
		}
		submit(Op{Kind: OpInsert, V: 100, Nbrs: []NodeID{3}})
		submit(Op{Kind: OpDelete, V: 3})
		submit(Op{Kind: OpInsert, V: 101, Nbrs: []NodeID{6}})
		if !s.Alive(100) || s.PendingOps() != 1 {
			t.Fatalf("flush applied insert 100: %v, %d ops pending; want the deletion of 3 alone", s.Alive(100), s.PendingOps())
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStampsReset: reset empties the set in O(1) by generation, and
// once stale stamps pass stampCap it clears the map so churn of fresh
// node IDs cannot grow it without bound.
func TestStampsReset(t *testing.T) {
	st := stamps{at: make(map[NodeID]uint64)}
	st.reset()
	for v := NodeID(0); v <= stampCap; v++ {
		if !st.add(v) {
			t.Fatalf("add(%d) reported a member of a fresh set", v)
		}
	}
	if st.add(7) || !st.has(7) {
		t.Fatal("a stamped node is not a member")
	}
	st.reset()
	if len(st.at) != 0 {
		t.Fatalf("reset past stampCap kept %d stale stamps", len(st.at))
	}
	if st.has(7) || !st.add(7) || !st.has(7) {
		t.Fatal("membership wrong after a clearing reset")
	}
	st.reset()
	if st.has(7) || len(st.at) != 1 {
		t.Fatalf("a plain reset: member %v, %d stamps kept", st.has(7), len(st.at))
	}
}
