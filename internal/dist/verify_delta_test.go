package dist

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
)

// Cross-checks for the incremental verification mode: VerifyDelta must
// agree with the full Verify on healthy networks throughout a
// campaign, and corruption inside a changed region must be caught by
// the delta pass exactly like the full one would catch it.

// TestVerifyDeltaAgreesWithFull replays a mixed campaign, running the
// incremental check after every operation and the authoritative full
// check at the end of each phase of the schedule. Both must stay nil
// throughout.
func TestVerifyDeltaAgreesWithFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewSimulation(graph.PreferentialAttachment(48, 3, rng))
	nextID := NodeID(50_000)
	for i := 0; i < 40; i++ {
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
				t.Fatalf("op %d: %v", i, err)
			}
		} else if rng.Float64() < 0.3 {
			batch := pickBatch(live, rng, 1+rng.Intn(4))
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		} else {
			if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := s.VerifyDelta(4); err != nil {
			t.Fatalf("op %d: incremental verification failed on a healthy network: %v", i, err)
		}
		if i%10 == 9 {
			if err := s.Verify(); err != nil {
				t.Fatalf("op %d: full verification failed after deltas passed: %v", i, err)
			}
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// With nothing touched since the last check, a delta is a no-op.
	if err := s.VerifyDelta(0); err != nil {
		t.Fatalf("no-op delta failed: %v", err)
	}
}

// churnedSim builds a network with real Reconstruction Trees and a
// fresh touched set from one more deletion.
func churnedSim(t *testing.T) *Simulation {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	s := NewSimulation(graph.PreferentialAttachment(40, 3, rng))
	for i := 0; i < 12; i++ {
		live := s.LiveNodes()
		if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	// One more deletion whose touched set the delta pass will visit.
	live := s.LiveNodes()
	if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
		t.Fatal(err)
	}
	return s
}

// touchedHelper returns the first processor touched by the last repair
// that simulates a helper, with its lowest helper slot key.
func touchedHelper(t *testing.T, s *Simulation) (*processor, NodeID) {
	t.Helper()
	s.touchers.mu.Lock()
	touched := append([]*processor(nil), s.touchers.procs...)
	s.touchers.mu.Unlock()
	for _, p := range touched {
		if s.procs[p.id] != p {
			continue
		}
		if keys := sortedRecordKeys(p.helpers); len(keys) > 0 {
			return p, keys[0]
		}
	}
	t.Skip("no touched helper in this campaign")
	return nil, 0
}

// recordAddrs lists every record in canonical order: processors
// ascending, each one's leaves then helpers by slot.
func recordAddrs(s *Simulation) []addr {
	var out []addr
	for _, id := range s.LiveNodes() {
		p := s.procs[id]
		for _, o := range sortedRecordKeys(p.leaves) {
			out = append(out, leafAddr(id, o))
		}
		for _, o := range sortedRecordKeys(p.helpers) {
			out = append(out, helperAddr(id, o))
		}
	}
	return out
}

// rootOf climbs a healthy record's parent links to its RT root.
func rootOf(s *Simulation, a addr) addr {
	for {
		parent, _, _ := s.lookupRecord(a)
		if !parent.ok() {
			return a
		}
		a = parent
	}
}

// subtreeLeaves lists the leaf slots under a healthy record.
func subtreeLeaves(s *Simulation, a addr) []slot {
	_, h, _ := s.lookupRecord(a)
	if h == nil {
		return []slot{a.slot()}
	}
	return append(subtreeLeaves(s, h.left), subtreeLeaves(s, h.right)...)
}

// TestVerifyDeltaCatchesCorruption is the detection matrix: each row
// damages the records of a healthy churned network one way and names
// the processor it damaged; the full pass must fail, and so must the
// incremental pass with only that processor touched. The rows that
// take (p, o) damage the lowest helper of a processor the last repair
// touched.
func TestVerifyDeltaCatchesCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, s *Simulation, p *processor, o NodeID) *processor
	}{
		{"leafcount", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			p.helpers[o].leafCount++
			return p
		}},
		{"height", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			p.helpers[o].height += 2
			return p
		}},
		{"damage-flag", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			p.helpers[o].damaged = true
			return p
		}},
		{"representative", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			p.helpers[o].rep = slot{Owner: p.id, Other: o + 100_000}
			return p
		}},
		{"dropped-parent", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			p.helpers[o].parent = addr{}
			return p
		}},
		// The helper also lists, as its left child, a leaf another
		// helper already lists.
		{"two-parents", func(t *testing.T, s *Simulation, p *processor, o NodeID) *processor {
			self := helperAddr(p.id, o)
			for _, a := range recordAddrs(s) {
				if parent, _, _ := s.lookupRecord(a); a.Kind == kindLeaf && parent.ok() && parent != self {
					p.helpers[o].left = a
					return p
				}
			}
			t.Fatal("no leaf under another helper")
			return nil
		}},
		// An RT root's parent field names one of its own helper
		// descendants.
		{"parent-cycle", func(t *testing.T, s *Simulation, _ *processor, _ NodeID) *processor {
			for _, a := range recordAddrs(s) {
				parent, h, _ := s.lookupRecord(a)
				if h == nil || parent.ok() {
					continue
				}
				for _, c := range [2]addr{h.left, h.right} {
					if c.Kind == kindHelper {
						h.parent = c
						return s.procs[a.Owner]
					}
				}
			}
			t.Fatal("no RT root with a helper child")
			return nil
		}},
		// A leaf's parent field names an existing helper on its own
		// processor that does not list it.
		{"orphaned-leaf", func(t *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			h := helperAddr(p.id, o)
			for _, x := range sortedRecordKeys(p.leaves) {
				if l := p.leaves[x]; l.parent.ok() && l.parent != h {
					l.parent = h
					return p
				}
			}
			t.Fatal("no leaf of the processor under another helper")
			return nil
		}},
		// One RT root is hung under a helper of another RT on the same
		// processor, without that helper listing it: no physical image
		// changes, so only a record check can see it.
		{"upward-only-root-link", func(t *testing.T, s *Simulation, _ *processor, _ NodeID) *processor {
			for _, r := range recordAddrs(s) {
				if parent, _, _ := s.lookupRecord(r); parent.ok() {
					continue
				}
				p := s.procs[r.Owner]
				for _, x := range sortedRecordKeys(p.helpers) {
					if h := helperAddr(p.id, x); rootOf(s, h) != r {
						if r.Kind == kindLeaf {
							p.leaves[r.Other].parent = h
						} else {
							p.helpers[r.Other].parent = h
						}
						return p
					}
				}
			}
			t.Fatal("no processor holds a root and a helper of another RT")
			return nil
		}},
		// The stored representative names a real leaf of the helper's
		// subtree, just not the free one.
		{"representative-real-leaf", func(t *testing.T, s *Simulation, p *processor, o NodeID) *processor {
			h := p.helpers[o]
			for _, l := range subtreeLeaves(s, helperAddr(p.id, o)) {
				if l != h.rep {
					h.rep = l
					return p
				}
			}
			t.Fatal("helper subtree has a single leaf")
			return nil
		}},
		{"helper-without-leaf", func(_ *testing.T, _ *Simulation, p *processor, o NodeID) *processor {
			delete(p.leaves, o)
			return p
		}},
		// A claim left behind by a finished repair: the admission claim
		// table no longer equals the union of the in-flight regions.
		{"stale-claim", func(_ *testing.T, s *Simulation, p *processor, _ NodeID) *processor {
			s.claims[p.id] = s.LastRecovery().Deleted
			return p
		}},
	}
	for _, c := range corruptions {
		c := c
		t.Run(c.name, func(t *testing.T) {
			s := churnedSim(t)
			p, o := touchedHelper(t, s)
			if err := s.Verify(); err != nil {
				t.Fatalf("pre-corruption full verify: %v", err)
			}
			victim := c.corrupt(t, s, p, o)
			if err := s.Verify(); err == nil {
				t.Fatal("full verification missed the corruption — the scenario is vacuous")
			}
			// The full pass cleared the touched set; hand the delta
			// pass the damaged processor alone.
			victim.markTouched()
			if err := s.VerifyDelta(0); err == nil {
				t.Fatal("incremental verification missed corruption the full check catches")
			}
		})
	}
}

// TestVerifyCatchesDegreeTrackerDrift: only Verify audits the
// incremental max-degree-ratio tracker, by comparing it with its
// rebuild. An entry pushed with a fresh stamp and an inflated ratio
// must fail that comparison.
func TestVerifyCatchesDegreeTrackerDrift(t *testing.T) {
	s := churnedSim(t)
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	s.degs.update(s.LiveNodes()[0], 1000, 1)
	if err := s.Verify(); err == nil || !strings.Contains(err.Error(), "degree tracker") {
		t.Fatalf("Verify with an inflated degree-tracker entry: %v; want a degree tracker error", err)
	}
}

// TestVerifyDeltaSampleDeterministic pins the opportunistic-sample
// cursor: two simulations fed the identical operation schedule must
// sample the identical processor sequence on every VerifyDelta call.
// (The sample used to be drawn by map iteration, so a sampled-sweep
// failure in a soak run was not replayable from its seed.)
func TestVerifyDeltaSampleDeterministic(t *testing.T) {
	run := func() [][]NodeID {
		rng := rand.New(rand.NewSource(77))
		s := NewSimulation(graph.PreferentialAttachment(32, 3, rng))
		var picks [][]NodeID
		nextID := NodeID(90_000)
		for i := 0; i < 25; i++ {
			live := s.LiveNodes()
			if len(live) == 0 {
				break
			}
			if rng.Float64() < 0.3 {
				v := nextID
				nextID++
				if err := s.Insert(v, []NodeID{live[rng.Intn(len(live))]}); err != nil {
					t.Fatal(err)
				}
			} else if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
				t.Fatal(err)
			}
			if err := s.VerifyDelta(3); err != nil {
				t.Fatal(err)
			}
			picks = append(picks, append([]NodeID(nil), s.LastSample()...))
		}
		return picks
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay produced %d sample sets, original %d", len(b), len(a))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("call %d: sample %v vs replay %v", i, a[i], b[i])
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("call %d: sample %v vs replay %v", i, a[i], b[i])
			}
		}
	}
}

// TestVerifyDeltaSampleRoundRobin checks the cursor actually rotates:
// on a quiet network, consecutive sampled deltas must cover every live
// processor in insertion order before revisiting any.
func TestVerifyDeltaSampleRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSimulation(graph.PreferentialAttachment(24, 2, rng))
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	n := s.NumAlive()
	per := 5
	var seen []NodeID
	for len(seen) < n {
		if err := s.VerifyDelta(per); err != nil {
			t.Fatal(err)
		}
		got := s.LastSample()
		if len(got) != per && len(seen)+len(got) < n {
			t.Fatalf("sampled %d processors, want %d", len(got), per)
		}
		seen = append(seen, got...)
	}
	firstRound := seen[:n]
	dup := make(map[NodeID]struct{}, n)
	for _, id := range firstRound {
		if _, ok := dup[id]; ok {
			t.Fatalf("processor %d sampled twice before full rotation: %v", id, firstRound)
		}
		dup[id] = struct{}{}
	}
	// Insertion order: the seed graph's nodes are added in ascending ID
	// order, so the first rotation must be sorted.
	for i := 1; i < n; i++ {
		if firstRound[i] < firstRound[i-1] {
			t.Fatalf("rotation not in insertion order: %v", firstRound)
		}
	}
}

// TestVerifyDeltaScaling sanity-checks the point of the incremental
// mode: after one deletion on a large churned network, the delta
// visits a region-sized slice of the state, not all of it. Measured
// structurally (processors visited), not by wall clock, so the test is
// immune to runner noise.
func TestVerifyDeltaScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewSimulation(graph.PreferentialAttachment(2000, 3, rng))
	for i := 0; i < 10; i++ {
		live := s.LiveNodes()
		if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	live := s.LiveNodes()
	if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
		t.Fatal(err)
	}
	s.drainPhys()
	s.touchers.mu.Lock()
	touched := len(s.touchers.procs)
	s.touchers.mu.Unlock()
	if touched == 0 {
		t.Fatal("repair touched nothing")
	}
	if touched > s.NumAlive()/4 {
		t.Fatalf("one repair touched %d of %d processors: the incremental pass saves nothing", touched, s.NumAlive())
	}
	if err := s.VerifyDelta(0); err != nil {
		t.Fatal(err)
	}
}
