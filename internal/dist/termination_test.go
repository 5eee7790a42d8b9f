package dist

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/simnet"
)

// Tests for the in-band synchronization machinery: the leader-election
// tournament over BT_v, the termination-detection convergecasts, and
// the height-bounded phase watchdogs — including the edge cases the
// old barrier synchronizer never had (a timer firing exactly when its
// phase completes, a repair finishing while another's election is
// still in flight, batch epochs finishing out of order).

// TestElectionCostStar pins the tournament's exact shape on stars: a
// hub deletion notifies k = n-1 processors, whose knockout costs
// 2(k-1) messages (one champion and one announcement per BT_v edge)
// in 2·floor(log2 k) rounds; the phase convergecast costs k-1
// subtree-dones plus one phase-done, and the merge plan's 2k-1
// instructions (k-1 fresh helpers, k adoptions) are each acked — the
// in-band completion proof — for 3k-1 sync messages total.
func TestElectionCostStar(t *testing.T) {
	for _, n := range []int{4, 8, 16, 33, 64} {
		s := NewSimulation(graph.Star(n))
		if err := s.Delete(0); err != nil {
			t.Fatal(err)
		}
		rs := s.LastRecovery()
		k := n - 1
		if want := 2 * (k - 1); rs.ElectionMessages != want {
			t.Errorf("n=%d: %d election messages, want %d", n, rs.ElectionMessages, want)
		}
		if want := 2 * (bits.Len(uint(k)) - 1); rs.ElectionRounds != want {
			t.Errorf("n=%d: %d election rounds, want %d = 2·floor(log2 %d)", n, rs.ElectionRounds, want, k)
		}
		if want := 3*k - 1; rs.SyncMessages != want {
			t.Errorf("n=%d: %d sync messages, want %d (star has no damage walks or strip cascades: k-1 dones + 1 phase-done + 2k-1 merge acks)", n, rs.SyncMessages, want)
		}
		if rs.SyncRounds == 0 {
			t.Errorf("n=%d: zero sync rounds", n)
		}
		if err := s.Verify(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestTrivialElection: a repair with a single notified processor has
// no tournament at all — the sole participant is its own leader.
func TestTrivialElection(t *testing.T) {
	s := NewSimulation(graph.Path(2))
	if err := s.Delete(1); err != nil {
		t.Fatal(err)
	}
	rs := s.LastRecovery()
	if rs.ElectionMessages != 0 || rs.ElectionRounds != 0 {
		t.Fatalf("k=1 repair ran an election: %+v", rs)
	}
	if rs.Messages == 0 {
		t.Fatalf("repair cost nothing: %+v", rs)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncCountersNonzeroUnderChurn: the acceptance-criteria check —
// repairs with real damage walks and strip cascades must report
// nonzero election AND sync rounds, and the coordination messages must
// be included in the message total.
func TestSyncCountersNonzeroUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewSimulation(graph.PreferentialAttachment(64, 3, rng))
	sawElection, sawSync := false, false
	for i := 0; i < 24; i++ {
		live := s.LiveNodes()
		if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
			t.Fatal(err)
		}
		rs := s.LastRecovery()
		if rs.ElectionRounds > 0 {
			sawElection = true
		}
		if rs.SyncRounds > 0 {
			sawSync = true
		}
		if rs.ElectionMessages+rs.SyncMessages >= rs.Messages && rs.Messages > 0 {
			t.Fatalf("repair %d: coordination (%d+%d) swallowed the whole message total %d",
				i, rs.ElectionMessages, rs.SyncMessages, rs.Messages)
		}
	}
	if !sawElection || !sawSync {
		t.Fatalf("campaign reported election=%v sync=%v rounds; both must be exposed", sawElection, sawSync)
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWatchdogStaleAtExactBound drives the watchdog edge case at the
// handler level: the phase completes in the very round the
// height-bounded timer fires. The firing must be recognized as stale —
// no re-arm, no double-advance (a double-advance would re-launch the
// phase and panic on the surplus replies).
func TestWatchdogStaleAtExactBound(t *testing.T) {
	net := simnet.New()
	p := newProcessor(1)
	p.done = &doneList{} // the engine's completion list, unwatched here
	net.AddNode(1, p.handle)
	const epoch = NodeID(7)
	rs := p.repair(epoch)
	rs.phase = phaseKeys
	rs.outstanding = 1
	p.armWatchdog(net, epoch, rs, 3)
	// The last probe reply arrives while the watchdog is in flight; the
	// phase chains onward (no fragments: straight through strip to the
	// merge, which retires the scratch). When the timer then fires —
	// the exactly-at-the-bound coincidence — it must see the advance.
	p.keyReplied(net, epoch)
	if rs.phase != phaseMerge {
		t.Fatalf("phase = %d after last reply, want merge", rs.phase)
	}
	for i := 0; i < 8 && net.Pending() > 0; i++ {
		net.Step()
	}
	if p.wdStale != 1 {
		t.Fatalf("stale watchdog firings = %d, want 1", p.wdStale)
	}
	if p.wdRearmed != 0 {
		t.Fatalf("watchdog re-armed %d times for a completed phase", p.wdRearmed)
	}
	if len(p.reps) != 0 {
		t.Fatalf("leader scratch leaked: %v", p.reps)
	}
	if net.Pending() != 0 {
		t.Fatalf("network not quiescent: %d pending", net.Pending())
	}
}

// TestWatchdogRearmsWhileOpen: a watchdog firing while its phase still
// waits for completion proofs must re-arm and keep watching, never
// advance the phase itself.
func TestWatchdogRearmsWhileOpen(t *testing.T) {
	net := simnet.New()
	p := newProcessor(1)
	net.AddNode(1, p.handle)
	const epoch = NodeID(7)
	rs := p.repair(epoch)
	rs.phase = phaseStrip
	rs.outstanding = 2 // proofs never arrive in this test
	p.armWatchdog(net, epoch, rs, 2)
	for i := 0; i < 7; i++ {
		net.Step()
	}
	if p.wdRearmed < 2 {
		t.Fatalf("watchdog re-armed %d times over 7 rounds at delay 2, want >= 2", p.wdRearmed)
	}
	if rs.phase != phaseStrip {
		t.Fatalf("watchdog advanced the phase to %d", rs.phase)
	}
	delete(p.reps, epoch) // stop the re-arm loop; the stale fire drains
	for i := 0; i < 4 && net.Pending() > 0; i++ {
		net.Step()
	}
	if net.Pending() != 0 {
		t.Fatal("stale watchdog did not drain")
	}
}

// TestWatchdogRearmUnderCongestion: with every link clamped to one
// word per round, completion proofs genuinely lag behind the
// height-bounded fire times, so a real campaign must exercise the
// re-arm path — and still heal to the reference graph.
func TestWatchdogRearmUnderCongestion(t *testing.T) {
	g0 := graph.PreferentialAttachment(48, 3, rand.New(rand.NewSource(11)))
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	for _, v := range s.LiveNodes() {
		s.SetNodeBandwidth(v, 1)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		live := s.LiveNodes()
		v := live[rng.Intn(len(live))]
		if err := s.Delete(v); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(v); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatal("healed graph diverges from core under full congestion")
	}
	rearmed, stale := 0, 0
	for _, p := range s.procs {
		rearmed += p.wdRearmed
		stale += p.wdStale
	}
	if rearmed == 0 {
		t.Error("no watchdog ever re-armed under node-cap-1 congestion: the bound never bit")
	}
	if stale == 0 {
		t.Error("no watchdog ever fired stale: phases never completed before the bound")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// lopsidedStars joins one tiny star and one large star far apart, so a
// batch deleting both hubs repairs two independent regions whose
// repairs run at very different speeds.
func lopsidedStars(small, big int) (*graph.Graph, []NodeID) {
	g := graph.New()
	id := NodeID(0)
	star := func(d int) (hub, tip NodeID) {
		hub = id
		id++
		for j := 0; j < d; j++ {
			ray := id
			id++
			g.AddEdge(hub, ray)
			if j == 0 {
				tip = ray
			}
		}
		return hub, tip
	}
	h1, t1 := star(small)
	h2, t2 := star(big)
	// A three-hop bridge keeps the regions vertex-disjoint.
	a, b := id, id+1
	id += 2
	g.AddEdge(t1, a)
	g.AddEdge(a, b)
	g.AddEdge(b, t2)
	return g, []NodeID{h1, h2}
}

// TestRepairCompletesDuringElection: in one wave, a trivial repair
// (two notified processors, a one-round election) runs through all
// five phases and finishes while the big repair's tournament is still
// being played. Epoch tagging must keep the interleaving clean and the
// healed graph equal to the sequential reference.
func TestRepairCompletesDuringElection(t *testing.T) {
	g0, hubs := lopsidedStars(2, 48)
	s := NewSimulation(g0)
	e := core.NewEngine(g0)
	if err := s.DeleteBatch(hubs); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch(hubs); err != nil {
		t.Fatal(err)
	}
	bs := s.LastBatch()
	if bs.Groups != 2 || bs.Waves != 1 {
		t.Fatalf("lopsided hubs: %d groups / %d waves, want 2 / 1", bs.Groups, bs.Waves)
	}
	// The big hub's election alone outlasts the whole small repair:
	// the small region's five phases ran inside the big election's
	// window, which the shared round count can only show if both
	// overlapped in one quiescence run.
	if bs.ElectionRounds == 0 {
		t.Fatal("no election rounds recorded")
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatal("healed graphs diverge")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchEpochsFinishOutOfOrder: three independent regions of very
// different sizes in one wave — the smallest epochs finish (merge
// instructions applied, scratch deleted) while the largest is still
// stripping. The wave's cost must track the largest chain, not the
// sum, and the result must match the reference.
func TestBatchEpochsFinishOutOfOrder(t *testing.T) {
	g := graph.New()
	id := NodeID(0)
	var hubs []NodeID
	var tips []NodeID
	for _, d := range []int{2, 8, 40} {
		hub := id
		id++
		hubs = append(hubs, hub)
		var tip NodeID
		for j := 0; j < d; j++ {
			ray := id
			id++
			g.AddEdge(hub, ray)
			if j == 0 {
				tip = ray
			}
		}
		a, b := id, id+1
		id += 2
		g.AddEdge(tip, a)
		g.AddEdge(a, b)
		tips = append(tips, b)
	}
	for i := range tips {
		g.AddEdge(tips[i], tips[(i+1)%len(tips)])
	}

	single := func(d int) int {
		gg, hh := lopsidedStars(2, d)
		ss := NewSimulation(gg)
		if err := ss.Delete(hh[1]); err != nil {
			t.Fatal(err)
		}
		return ss.LastRecovery().Rounds
	}(40)

	s := NewSimulation(g)
	e := core.NewEngine(g)
	if err := s.DeleteBatch(hubs); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteBatch(hubs); err != nil {
		t.Fatal(err)
	}
	bs := s.LastBatch()
	if bs.Groups != 3 || bs.Waves != 1 {
		t.Fatalf("three lopsided hubs: %d groups / %d waves, want 3 / 1", bs.Groups, bs.Waves)
	}
	if bs.Rounds > 2*single {
		t.Errorf("wave of lopsided repairs took %d rounds, want <= 2x the largest single repair (%d)",
			bs.Rounds, single)
	}
	if !s.Physical().Equal(e.Physical()) {
		t.Fatal("healed graphs diverge")
	}
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}
