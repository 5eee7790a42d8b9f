package dist

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Differential equivalence for batched deletions: dist.DeleteBatch
// overlaps repairs of independent regions, core.DeleteBatch applies
// the same deletions sequentially in canonical order, and the healed
// graphs must be identical.

// pickBatch draws k distinct live nodes.
func pickBatch(live []NodeID, rng *rand.Rand, k int) []NodeID {
	if k > len(live) {
		k = len(live)
	}
	out := make([]NodeID, 0, k)
	for _, idx := range rng.Perm(len(live))[:k] {
		out = append(out, live[idx])
	}
	return out
}

// replayBatches drives random insert/batch-delete schedules through a
// fresh dist.Simulation and core.Engine over g0,
// asserting equal healed graphs after every operation and full
// revalidation at the end.
func replayBatches(t *testing.T, g0 *graph.Graph, ops, maxK int, seed int64) {
	t.Helper()
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	rng := rand.New(rand.NewSource(seed))
	nextID := NodeID(20_000)

	for i := 0; i < ops; i++ {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		if rng.Float64() < 0.25 {
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
				t.Fatalf("op %d: dist insert: %v", i, err)
			}
			if err := e.Insert(v, nbrs); err != nil {
				t.Fatalf("op %d: core insert: %v", i, err)
			}
		} else {
			batch := pickBatch(live, rng, 1+rng.Intn(maxK))
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d: dist delete batch %v: %v", i, batch, err)
			}
			if err := e.DeleteBatch(batch); err != nil {
				t.Fatalf("op %d: core delete batch %v: %v", i, batch, err)
			}
			bs := s.LastBatch()
			if bs.Batch != len(batch) {
				t.Fatalf("op %d: batch stats report %d deletions, want %d", i, bs.Batch, len(batch))
			}
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("op %d: healed graphs diverge (dist %v vs core %v)",
				i, s.Physical(), e.Physical())
		}
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("dist verify: %v", err)
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatalf("core invariants: %v", err)
	}
	if !s.GPrime().Equal(e.GPrime()) {
		t.Fatal("G' diverged")
	}
}

func TestBatchEquivalenceWithCore(t *testing.T) {
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
		ops  int
	}{
		{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }, 12},
		{"path", func(*rand.Rand) *graph.Graph { return graph.Path(24) }, 12},
		{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }, 12},
		{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }, 14},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }, 14},
	}
	for _, topo := range topologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(300 + seed)))
				replayBatches(t, g0, topo.ops, 4, 13*seed+3)
			}
		})
	}
}

// TestBatchGrindsDown deletes the whole network in batches, hitting
// the late game where most of the graph is Reconstruction Trees and
// almost every batch conflicts internally.
func TestBatchGrindsDown(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g0 := graph.GNP(28, 0.2, rng)
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	for {
		live := s.LiveNodes()
		if len(live) == 0 {
			break
		}
		batch := pickBatch(live, rng, 1+rng.Intn(5))
		if err := s.DeleteBatch(batch); err != nil {
			t.Fatalf("dist delete batch %v: %v", batch, err)
		}
		if err := e.DeleteBatch(batch); err != nil {
			t.Fatalf("core delete batch %v: %v", batch, err)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("after batch %v: healed graphs diverge", batch)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("after batch %v: %v", batch, err)
		}
	}
}

// TestBatchOfOneBitIdentical runs the same deletion through Delete on
// one simulation and DeleteBatch on an identical twin: the recovery
// stats — message counts, rounds, words, everything — and the healed
// graphs must match exactly, because a batch of one IS the Delete
// path.
func TestBatchOfOneBitIdentical(t *testing.T) {
	g0 := graph.PreferentialAttachment(32, 2, rand.New(rand.NewSource(21)))
	a := NewSimulation(g0)
	b := NewSimulation(g0)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 12; i++ {
		live := a.LiveNodes()
		if len(live) == 0 {
			break
		}
		v := live[rng.Intn(len(live))]
		if err := a.Delete(v); err != nil {
			t.Fatalf("delete %d: %v", v, err)
		}
		if err := b.DeleteBatch([]NodeID{v}); err != nil {
			t.Fatalf("delete batch [%d]: %v", v, err)
		}
		if a.LastRecovery() != b.LastRecovery() {
			t.Fatalf("delete %d: recovery stats diverge: %+v vs %+v",
				v, a.LastRecovery(), b.LastRecovery())
		}
		bs := b.LastBatch()
		rs := a.LastRecovery()
		if bs.Messages != rs.Messages || bs.Rounds != rs.Rounds || bs.TotalWords != rs.TotalWords {
			t.Fatalf("delete %d: batch stats %+v disagree with recovery stats %+v", v, bs, rs)
		}
		if !a.Physical().Equal(b.Physical()) {
			t.Fatalf("delete %d: healed graphs diverge", v)
		}
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchValidationAtomic: a batch containing a dead node or a
// duplicate must reject without touching anything.
func TestBatchValidationAtomic(t *testing.T) {
	g0 := graph.Grid(4, 4)
	s := NewSimulation(g0)
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	before := s.Physical()
	if err := s.DeleteBatch([]NodeID{1, 5, 2}); err == nil {
		t.Fatal("batch containing a dead node accepted")
	}
	if err := s.DeleteBatch([]NodeID{1, 2, 1}); err == nil {
		t.Fatal("batch containing a duplicate accepted")
	}
	if !s.Physical().Equal(before) {
		t.Fatal("rejected batch mutated the network")
	}
	if err := s.DeleteBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// disjointStars builds k stars of degree d joined in a cycle by their
// outermost ray tips, so the graph is connected but the k hubs have
// vertex-disjoint neighborhoods at distance ≥ 4 from each other:
// deleting all hubs in one batch damages k fully independent regions.
func disjointStars(k, d int) (*graph.Graph, []NodeID) {
	g := graph.New()
	hubs := make([]NodeID, k)
	var bridges []NodeID
	id := NodeID(0)
	for i := 0; i < k; i++ {
		hub := id
		id++
		g.AddNode(hub)
		hubs[i] = hub
		var firstRay NodeID
		for j := 0; j < d; j++ {
			ray := id
			id++
			g.AddEdge(hub, ray)
			if j == 0 {
				firstRay = ray
			}
		}
		// A two-hop chain off the first ray keeps the inter-star
		// bridges far away from every hub's neighborhood.
		a, b := id, id+1
		id += 2
		g.AddEdge(firstRay, a)
		g.AddEdge(a, b)
		bridges = append(bridges, b)
	}
	for i := range bridges {
		g.AddEdge(bridges[i], bridges[(i+1)%len(bridges)])
	}
	return g, hubs
}

// TestDisjointBatchRoundScaling is the throughput claim: deleting k
// hubs with vertex-disjoint damaged regions in one batch must cost at
// most twice the rounds of the most expensive single hub deletion —
// the repairs overlap instead of running back to back — and the batch
// must resolve them as k independent groups in one wave.
func TestDisjointBatchRoundScaling(t *testing.T) {
	const d = 8
	single := 0
	{
		g, hubs := disjointStars(1, d)
		s := NewSimulation(g)
		if err := s.Delete(hubs[0]); err != nil {
			t.Fatal(err)
		}
		single = s.LastRecovery().Rounds
		if single == 0 {
			t.Fatal("single hub deletion reported zero rounds")
		}
	}
	for _, k := range []int{2, 4, 8, 16} {
		g, hubs := disjointStars(k, d)
		s := NewSimulation(g)
		e := core.NewEngine(g)
		if err := s.DeleteBatch(hubs); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := e.DeleteBatch(hubs); err != nil {
			t.Fatalf("k=%d: core: %v", k, err)
		}
		bs := s.LastBatch()
		if bs.Groups != k {
			t.Errorf("k=%d: %d conflict groups, want %d independent ones (conflicts: %d)",
				k, bs.Groups, k, bs.Conflicts)
		}
		if bs.Waves != 1 {
			t.Errorf("k=%d: %d waves, want 1", k, bs.Waves)
		}
		if bs.Rounds > 2*single {
			t.Errorf("k=%d: batch took %d rounds, want <= 2x single deletion (%d): disjoint repairs must overlap",
				k, bs.Rounds, single)
		}
		if !s.Physical().Equal(e.Physical()) {
			t.Fatalf("k=%d: healed graphs diverge", k)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

// TestCollidingBatchSerializes deletes a hub together with two of its
// direct neighbors: all three repairs share a region, so the conflict
// detector must fold them into one group and serialize three waves —
// and the result must still match the sequential reference.
func TestCollidingBatchSerializes(t *testing.T) {
	g0 := graph.Star(16)
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	batch := []NodeID{0, 1, 2}
	if err := s.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	bs := s.LastBatch()
	if bs.Groups != 1 {
		t.Errorf("hub plus two rays formed %d groups, want 1", bs.Groups)
	}
	if bs.Waves != 3 {
		t.Errorf("hub plus two rays ran %d waves, want 3", bs.Waves)
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatal("healed graphs diverge")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCollidingHubBatchMatchesCore deletes a colliding cluster around
// the hub of a churned powerlaw network, where deep Reconstruction
// Trees tie members together through shared records rather than
// direct adjacency, and checks the healed graph against the sequential
// reference.
func TestCollidingHubBatchMatchesCore(t *testing.T) {
	g0 := graph.PreferentialAttachment(48, 3, rand.New(rand.NewSource(5)))
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 12; i++ {
		live := s.LiveNodes()
		v := live[rng.Intn(len(live))]
		if err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	live := s.LiveNodes()
	phys := s.Physical()
	hub, hubDeg := live[0], -1
	for _, u := range live {
		if d := phys.Degree(u); d > hubDeg {
			hub, hubDeg = u, d
		}
	}
	batch := collidingBatch(s, hub, live, 5)
	if err := s.DeleteBatch(batch); err != nil {
		t.Fatalf("batch %v: %v", batch, err)
	}
	if err := e.DeleteBatch(batch); err != nil {
		t.Fatalf("core batch %v: %v", batch, err)
	}
	if bs := s.LastBatch(); bs.Waves < 2 {
		t.Errorf("colliding batch %v ran %d waves, want serialization", batch, bs.Waves)
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatalf("batch %v: healed graphs diverge", batch)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchMatchesSubmitTwin pins DeleteBatch to the engine's own
// admission path: a twin that Submits the same deletions in ascending
// order and Drains must spend exactly the same messages, rounds and
// words, and heal to the same graph.
func TestBatchMatchesSubmitTwin(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		g0 := graph.PreferentialAttachment(1024, 3, rand.New(rand.NewSource(seed)))
		s := NewSimulation(g0)
		twin := NewSimulation(g0)
		rng := rand.New(rand.NewSource(seed + 1000))
		for _, k := range []int{2, 4, 16} {
			batch := pickBatch(s.LiveNodes(), rng, k)
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("seed %d: batch %v: %v", seed, batch, err)
			}
			ops := make([]Op, 0, k)
			for _, v := range batch {
				ops = append(ops, Op{Kind: OpDelete, V: v})
			}
			sort.Slice(ops, func(i, j int) bool { return ops[i].V < ops[j].V })
			twin.net.ResetStats()
			if err := twin.Submit(ops...); err != nil {
				t.Fatal(err)
			}
			if err := twin.Drain(); err != nil {
				t.Fatalf("seed %d: twin drain: %v", seed, err)
			}
			for _, ev := range twin.Poll() {
				if ev.Kind == EventOpRejected {
					t.Fatalf("seed %d: twin rejected %v: %v", seed, ev.Op, ev.Err)
				}
			}
			bs, st := s.LastBatch(), twin.net.Stats()
			if bs.Messages != st.Messages || bs.Rounds != st.Rounds || bs.TotalWords != st.TotalWords {
				t.Fatalf("seed %d k=%d: batch spent %d msgs / %d rounds / %d words, Submit twin %d / %d / %d",
					seed, k, bs.Messages, bs.Rounds, bs.TotalWords, st.Messages, st.Rounds, st.TotalWords)
			}
			if !s.Physical().Equal(twin.Physical()) {
				t.Fatalf("seed %d k=%d: healed graphs diverge", seed, k)
			}
			if !s.GPrime().Equal(twin.GPrime()) {
				t.Fatalf("seed %d k=%d: G' diverges", seed, k)
			}
		}
	}
}

// TestBatchBetweenCoalescedSubmits runs a DeleteBatch of overlapping
// members between two Submits with coalescing on. The members take no
// Submit sequence number and bypass the coalescing queue: each reports
// one Seq 0 repair, the call one batch event, the Submits keep Seq 1
// and 2, and the queue's counters do not move across the batch.
func TestBatchBetweenCoalescedSubmits(t *testing.T) {
	g0 := graph.PreferentialAttachment(64, 2, rand.New(rand.NewSource(3)))
	s := NewSimulation(g0)
	s.SetCoalescing(CoalesceConfig{Window: 4})
	var evs []Event
	s.SetObserver(func(ev Event) { evs = append(evs, ev) })
	live := s.LiveNodes()
	if err := s.Submit(Op{Kind: OpDelete, V: live[len(live)-1]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	live = s.LiveNodes()
	batch := collidingBatch(s, live[0], live, 4)
	before := s.CoalesceStats()
	if err := s.DeleteBatch(batch); err != nil {
		t.Fatalf("batch %v: %v", batch, err)
	}
	if got, want := s.NetMessages(), s.LastBatch().Messages; got != want {
		t.Errorf("transport counted %d messages since the batch's reset, LastBatch %d", got, want)
	}
	if s.CoalesceStats() != before {
		t.Errorf("batch moved the coalescing counters: %+v -> %+v", before, s.CoalesceStats())
	}
	if bs := s.LastBatch(); bs.Waves < 2 {
		t.Errorf("batch %v ran %d waves: the members never overlapped", batch, bs.Waves)
	}
	live = s.LiveNodes()
	if err := s.Submit(Op{Kind: OpDelete, V: live[len(live)-1]}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	members := make(map[NodeID]int)
	var seqs []int
	batchDone := 0
	for _, ev := range evs {
		switch {
		case ev.Kind == EventBatchDone:
			batchDone++
		case ev.Seq == 0:
			if ev.Kind != EventRepairDone {
				t.Errorf("batch member %d reported %v, want a repair", ev.V, ev.Kind)
			}
			members[ev.V]++
		default:
			seqs = append(seqs, ev.Seq)
		}
	}
	if batchDone != 1 {
		t.Errorf("%d batch events, want 1", batchDone)
	}
	if len(members) != len(batch) {
		t.Errorf("%d members reported, want %d", len(members), len(batch))
	}
	for _, v := range batch {
		if members[v] != 1 {
			t.Errorf("member %d reported %d repairs, want 1", v, members[v])
		}
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 2 {
		t.Errorf("Submit events carry seqs %v, want [1 2]", seqs)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestCoreBatchMatchesSequentialDeletes pins the reference semantics
// itself: DeleteBatch on the engine equals sorted one-at-a-time
// Deletes.
func TestCoreBatchMatchesSequentialDeletes(t *testing.T) {
	g0 := graph.GNP(24, 0.2, rand.New(rand.NewSource(6)))
	a := core.NewEngine(g0)
	b := core.NewEngine(g0)
	batch := []NodeID{7, 3, 19, 11}
	if err := a.DeleteBatch(batch); err != nil {
		t.Fatal(err)
	}
	for _, v := range []NodeID{3, 7, 11, 19} {
		if err := b.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if !a.Physical().Equal(b.Physical()) {
		t.Fatal("core batch diverges from canonical-order sequential deletes")
	}
	if a.LastBatchRepair().Batch != 4 {
		t.Fatalf("batch stats: %+v", a.LastBatchRepair())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
