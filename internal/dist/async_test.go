package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// Differential equivalence for the open-loop engine: any interleaved
// Submit/Tick schedule must heal bit-identically to the serialized
// blocking replay (each operation applied one at a time, in submission
// order) and to the reference core engine — across the five topology
// families and under finite bandwidth caps.

// asyncOp is one scheduled operation: the op plus how many rounds the
// submitter waits before the next submission (0 = same round).
type asyncOp struct {
	op    Op
	delay int
}

// genSchedule derives a valid random schedule by running the ops on a
// scratch blocking twin (so deletes target live nodes and inserts
// attach to live neighbors), returning the schedule for the async
// replay.
func genSchedule(g0 *graph.Graph, ops int, seed int64) []asyncOp {
	twin := NewSimulation(g0)
	rng := rand.New(rand.NewSource(seed))
	nextID := NodeID(40_000)
	var schedule []asyncOp
	for i := 0; i < ops; i++ {
		live := twin.LiveNodes()
		if len(live) == 0 {
			break
		}
		var op Op
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
			op = Op{Kind: OpInsert, V: v, Nbrs: nbrs}
			if err := twin.Insert(v, nbrs); err != nil {
				panic(err)
			}
		} else {
			v := live[rng.Intn(len(live))]
			op = Op{Kind: OpDelete, V: v}
			if err := twin.Delete(v); err != nil {
				panic(err)
			}
		}
		schedule = append(schedule, asyncOp{op: op, delay: rng.Intn(4)})
	}
	return schedule
}

// replayAsync drives one schedule through the open-loop engine
// (submitting mid-flight, ticking between submissions) and through the
// serialized blocking replay plus the core reference, asserting
// bit-identical healed graphs.
func replayAsync(t *testing.T, g0 *graph.Graph, schedule []asyncOp, bandwidth int) {
	t.Helper()
	async := NewSimulation(g0)
	async.SetBandwidth(bandwidth)
	blocking := NewSimulation(g0)
	blocking.SetBandwidth(bandwidth)
	ref := core.NewEngine(g0)

	for _, so := range schedule {
		if err := async.Submit(so.op); err != nil {
			t.Fatalf("submit %v: %v", so.op, err)
		}
		for r := 0; r < so.delay; r++ {
			async.Tick()
		}
		switch so.op.Kind {
		case OpInsert:
			if err := blocking.Insert(so.op.V, so.op.Nbrs); err != nil {
				t.Fatalf("blocking insert %v: %v", so.op, err)
			}
			if err := ref.Insert(so.op.V, so.op.Nbrs); err != nil {
				t.Fatalf("core insert %v: %v", so.op, err)
			}
		case OpDelete:
			if err := blocking.Delete(so.op.V); err != nil {
				t.Fatalf("blocking delete %v: %v", so.op, err)
			}
			if err := ref.Delete(so.op.V); err != nil {
				t.Fatalf("core delete %v: %v", so.op, err)
			}
		}
	}
	if err := async.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Every submitted op must have completed — none rejected (the
	// schedule is valid by construction) — with one event each.
	events := async.Poll()
	repairs, inserts := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case EventRepairDone:
			repairs++
		case EventInsertApplied:
			inserts++
		case EventOpRejected:
			t.Fatalf("valid op rejected: %v: %v", ev.Op, ev.Err)
		}
	}
	wantRepairs, wantInserts := 0, 0
	for _, so := range schedule {
		if so.op.Kind == OpDelete {
			wantRepairs++
		} else {
			wantInserts++
		}
	}
	if repairs != wantRepairs || inserts != wantInserts {
		t.Fatalf("events: %d repairs / %d inserts, want %d / %d", repairs, inserts, wantRepairs, wantInserts)
	}

	if !async.Physical().Equal(blocking.Physical()) {
		t.Fatal("async healed graph diverges from serialized blocking replay")
	}
	if !async.Physical().Equal(ref.Physical()) {
		t.Fatal("async healed graph diverges from core reference")
	}
	if !async.GPrime().Equal(blocking.GPrime()) {
		t.Fatal("G' diverged")
	}
	if err := async.Verify(); err != nil {
		t.Fatalf("async verify: %v", err)
	}
	if err := blocking.Verify(); err != nil {
		t.Fatalf("blocking verify: %v", err)
	}
}

func TestAsyncEquivalenceWithBlocking(t *testing.T) {
	topologies := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
		ops  int
	}{
		{"star", func(*rand.Rand) *graph.Graph { return graph.Star(24) }, 26},
		{"path", func(*rand.Rand) *graph.Graph { return graph.Path(20) }, 22},
		{"grid", func(*rand.Rand) *graph.Graph { return graph.Grid(5, 5) }, 28},
		{"gnp", func(rng *rand.Rand) *graph.Graph { return graph.GNP(32, 0.15, rng) }, 32},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return graph.PreferentialAttachment(28, 2, rng) }, 30},
	}
	for _, topo := range topologies {
		topo := topo
		t.Run(topo.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				g0 := topo.gen(rand.New(rand.NewSource(700 + seed)))
				schedule := genSchedule(g0, topo.ops, 31*seed+5)
				replayAsync(t, g0, schedule, 0)
			}
		})
	}
}

// TestAsyncEquivalenceUnderBandwidth repeats the differential check
// under finite per-edge caps: congestion stretches repairs across more
// rounds — so more operations land mid-flight — and the healed graph
// must still match the replay exactly.
func TestAsyncEquivalenceUnderBandwidth(t *testing.T) {
	for _, B := range []int{1, 3, 16} {
		B := B
		t.Run(fmt.Sprintf("B=%d", B), func(t *testing.T) {
			g0 := graph.PreferentialAttachment(28, 2, rand.New(rand.NewSource(910)))
			schedule := genSchedule(g0, 26, 17)
			replayAsync(t, g0, schedule, B)
		})
	}
}

// TestAsyncPipelinesDisjointRepairs is the point of the open-loop
// engine: two deletions with disjoint regions submitted back to back
// overlap, so draining both costs well under the sum of their
// individual repairs.
func TestAsyncPipelinesDisjointRepairs(t *testing.T) {
	const d = 8
	single := func() int {
		g, hubs := disjointStars(1, d)
		s := NewSimulation(g)
		if err := s.Delete(hubs[0]); err != nil {
			t.Fatal(err)
		}
		return s.LastRecovery().Rounds
	}()
	if single == 0 {
		t.Fatal("single hub repair reported zero rounds")
	}

	g, hubs := disjointStars(8, d)
	s := NewSimulation(g)
	var ops []Op
	for _, h := range hubs {
		ops = append(ops, Op{Kind: OpDelete, V: h})
	}
	if err := s.Submit(ops...); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != len(hubs) {
		t.Fatalf("submitted %d disjoint deletions, %d in flight: admission failed to overlap them", len(hubs), got)
	}
	rounds := 0
	for s.Tick() {
		rounds++
		if rounds > 100*single {
			t.Fatal("engine failed to drain")
		}
	}
	if rounds > 2*single {
		t.Errorf("8 disjoint async deletions took %d rounds, want <= 2x single (%d)", rounds, single)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncConflictingSerializesInOrder: two deletions whose regions
// collide must serialize in submission order — the second launches
// only after the first completes (leader handoff), and the healed
// graph matches applying them blocking in that same order, which here
// is DESCENDING id order (the opposite of DeleteBatch's canonical
// ascending order, proving the engine follows submission order, not
// id order).
func TestAsyncConflictingSerializesInOrder(t *testing.T) {
	build := func() *graph.Graph { return graph.Star(16) }
	s := NewSimulation(build())
	// Delete ray 5 first, then the hub 0: they share a region.
	if err := s.Submit(Op{Kind: OpDelete, V: 5}, Op{Kind: OpDelete, V: 0}); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 1 {
		t.Fatalf("conflicting deletions launched together: %d in flight, want 1", got)
	}
	if got := s.PendingOps(); got != 1 {
		t.Fatalf("%d pending ops, want 1", got)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	evs := s.Poll()
	if len(evs) != 2 || evs[0].Kind != EventRepairDone || evs[1].Kind != EventRepairDone {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].V != 5 || evs[1].V != 0 {
		t.Fatalf("completion order %d, %d; want 5 then 0 (submission order)", evs[0].V, evs[1].V)
	}

	blocking := NewSimulation(build())
	if err := blocking.Delete(5); err != nil {
		t.Fatal(err)
	}
	if err := blocking.Delete(0); err != nil {
		t.Fatal(err)
	}
	if !s.Physical().Equal(blocking.Physical()) {
		t.Fatal("async healed graph diverges from submission-order blocking replay")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncRejections: state-dependent validation happens at each
// operation's serialization point and surfaces as OpRejected events
// carrying the blocking API's error.
func TestAsyncRejections(t *testing.T) {
	s := NewSimulation(graph.Star(8))
	ops := []Op{
		{Kind: OpDelete, V: 3},
		{Kind: OpDelete, V: 3},                        // double delete: rejected
		{Kind: OpInsert, V: 100, Nbrs: []NodeID{3}},   // neighbor 3 is dead by then
		{Kind: OpInsert, V: 101, Nbrs: []NodeID{1}},   // fine
		{Kind: OpDelete, V: 101},                      // deletes the new node
		{Kind: OpInsert, V: 1, Nbrs: []NodeID{2}},     // id reuse: rejected
		{Kind: OpDelete, V: 999},                      // never existed: rejected
		{Kind: OpInsert, V: 102, Nbrs: []NodeID{101}}, // neighbor dead by then
	}
	if err := s.Submit(ops...); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	rejected := make(map[NodeID]bool)
	for _, ev := range s.Poll() {
		if ev.Kind == EventOpRejected {
			if ev.Err == nil {
				t.Fatalf("rejection without error: %+v", ev)
			}
			rejected[ev.V] = true
		}
	}
	for _, v := range []NodeID{3, 100, 1, 999, 102} {
		if !rejected[v] {
			t.Errorf("op on %d not rejected; rejected set: %v", v, rejected)
		}
	}
	if len(rejected) != 5 {
		t.Errorf("%d rejections, want 5: %v", len(rejected), rejected)
	}

	// The mirror blocking replay agrees op by op.
	b := NewSimulation(graph.Star(8))
	if err := b.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(3); err == nil {
		t.Fatal("blocking replay accepted double delete")
	}
	if err := b.Insert(100, []NodeID{3}); err == nil {
		t.Fatal("blocking replay accepted insert on dead neighbor")
	}
	if err := b.Insert(101, []NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(101); err != nil {
		t.Fatal(err)
	}
	if !s.Physical().Equal(b.Physical()) {
		t.Fatal("async diverges from blocking replay under rejections")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncInsertDeferredInDamagedRegion: an insert whose attachment
// point lies inside an in-flight repair's region waits for the region
// to heal; one attaching elsewhere applies immediately.
func TestAsyncInsertDeferredInDamagedRegion(t *testing.T) {
	g, hubs := disjointStars(2, 8)
	s := NewSimulation(g)
	other := hubs[1] + 1 // a ray of the second star: outside region(hubs[0])
	if err := s.Submit(Op{Kind: OpDelete, V: hubs[0]}); err != nil {
		t.Fatal(err)
	}
	if s.InFlight() != 1 {
		t.Fatal("repair not launched")
	}
	// Attach one insert inside the damaged region, one far away.
	ray := hubs[0] + 1
	if err := s.Submit(
		Op{Kind: OpInsert, V: 900, Nbrs: []NodeID{ray}},
		Op{Kind: OpInsert, V: 901, Nbrs: []NodeID{other}},
	); err != nil {
		t.Fatal(err)
	}
	if s.PendingOps() != 1 {
		t.Fatalf("%d pending ops, want 1 (the insert into the damaged region deferred, the other applied)", s.PendingOps())
	}
	if s.Alive(900) {
		t.Fatal("insert into damaged region applied mid-repair")
	}
	if !s.Alive(901) {
		t.Fatal("insert outside every region was deferred")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if !s.Alive(900) {
		t.Fatal("deferred insert never applied")
	}
	// The deferred insert's event reports positive latency; events
	// arrive as repair-done, insert(901), insert(900).
	var sawDeferred bool
	for _, ev := range s.Poll() {
		if ev.Kind == EventInsertApplied && ev.V == 900 {
			sawDeferred = true
			if ev.Latency == 0 {
				t.Error("deferred insert reports zero latency")
			}
		}
	}
	if !sawDeferred {
		t.Fatal("no InsertApplied event for the deferred insert")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBlockingCallsRequireIdleEngine: mixing undrained async work with
// the blocking API is a caller error, reported not deadlocked.
func TestBlockingCallsRequireIdleEngine(t *testing.T) {
	s := NewSimulation(graph.Star(16))
	if err := s.Submit(Op{Kind: OpDelete, V: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err == nil {
		t.Fatal("blocking Delete accepted while engine busy")
	}
	if err := s.Insert(50, []NodeID{1}); err == nil {
		t.Fatal("blocking Insert accepted while engine busy")
	}
	if err := s.DeleteBatch([]NodeID{1, 2}); err == nil {
		t.Fatal("blocking DeleteBatch accepted while engine busy")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(1); err != nil {
		t.Fatalf("blocking Delete after drain: %v", err)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncObserverStreams: an installed observer is the consumption
// path — it sees every event in order, the Poll buffer stays empty
// (stream-only consumers must not leak memory), and an observer may
// reenter Submit from a callback.
func TestAsyncObserverStreams(t *testing.T) {
	s := NewSimulation(graph.Star(12))
	var streamed []Event
	resubmitted := false
	s.SetObserver(func(ev Event) {
		streamed = append(streamed, ev)
		if ev.Kind == EventRepairDone && !resubmitted {
			resubmitted = true
			if err := s.Submit(Op{Kind: OpInsert, V: 201, Nbrs: []NodeID{6}}); err != nil {
				t.Errorf("reentrant submit: %v", err)
			}
		}
	})
	if err := s.Submit(Op{Kind: OpDelete, V: 4}, Op{Kind: OpInsert, V: 200, Nbrs: []NodeID{5}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if polled := s.Poll(); len(polled) != 0 {
		t.Fatalf("Poll delivered %d events despite an installed observer", len(polled))
	}
	// The insert's region is free of the repair's, so it applies during
	// Submit itself and its event streams first; the reentrant insert
	// follows its triggering RepairDone.
	want := []struct {
		kind EventKind
		v    NodeID
	}{{EventInsertApplied, 200}, {EventRepairDone, 4}, {EventInsertApplied, 201}}
	if len(streamed) != len(want) {
		t.Fatalf("observer saw %d events, want %d: %+v", len(streamed), len(want), streamed)
	}
	for i, w := range want {
		if streamed[i].Kind != w.kind || streamed[i].V != w.v {
			t.Fatalf("event %d: got kind=%d v=%d, want kind=%d v=%d", i, streamed[i].Kind, streamed[i].V, w.kind, w.v)
		}
	}
	if !s.Alive(201) {
		t.Fatal("reentrantly submitted insert never applied")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundBoundCached pins the satellite fix: the quiescence bound is
// cached and only recomputed when the node count or the narrowest
// capacity changes.
func TestRoundBoundCached(t *testing.T) {
	s := NewSimulation(graph.Star(16))
	b0 := s.roundBound()
	if s.boundDirty {
		t.Fatal("bound still dirty after computation")
	}
	if got := s.roundBound(); got != b0 {
		t.Fatalf("cached bound changed: %d -> %d", b0, got)
	}
	if err := s.Insert(100, []NodeID{1}); err != nil {
		t.Fatal(err)
	}
	if !s.boundDirty {
		t.Fatal("insert did not invalidate the cached bound")
	}
	s.roundBound()
	s.SetBandwidth(1)
	if !s.boundDirty {
		t.Fatal("a narrower capacity did not invalidate the cached bound")
	}
	if b1 := s.roundBound(); b1 <= b0 {
		t.Fatalf("bound under congestion slack %d <= uncapped bound %d", b1, b0)
	}
}
