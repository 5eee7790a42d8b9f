package protocol

import (
	"math"
	"testing"
)

func star(n int) []Edge {
	edges := make([]Edge, n-1)
	for i := 1; i < n; i++ {
		edges[i-1] = Edge{U: 0, V: NodeID(i)}
	}
	return edges
}

func TestNewAndRepair(t *testing.T) {
	net, err := New(star(16))
	if err != nil {
		t.Fatal(err)
	}
	if net.NumAlive() != 16 {
		t.Fatalf("alive = %d", net.NumAlive())
	}
	if err := net.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	rc := net.LastRepair()
	if rc.Deleted != 0 || rc.DegreePrime != 15 || rc.BTvSize != 15 {
		t.Fatalf("repair cost = %+v", rc)
	}
	if rc.Messages == 0 || rc.Rounds == 0 || rc.MaxWords == 0 {
		t.Fatalf("missing accounting: %+v", rc)
	}
	// Lemma 4 shape with a generous constant.
	if lim := 40 * 15 * math.Log2(16); float64(rc.Messages) > lim {
		t.Fatalf("messages %d > %v", rc.Messages, lim)
	}
}

func TestRejectsSelfLoop(t *testing.T) {
	if _, err := New([]Edge{{U: 1, V: 1}}); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestInsertAndAccessors(t *testing.T) {
	net, err := New([]Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Insert(9, []NodeID{0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := net.Delete(1); err != nil {
		t.Fatal(err)
	}
	if net.Alive(1) || !net.Alive(9) {
		t.Fatal("liveness wrong")
	}
	nodes := net.Nodes()
	if len(nodes) != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	if d := net.Distance(0, 2); d < 1 || d > 2 {
		t.Fatalf("distance(0,2) = %d", d)
	}
	if net.Degree(9) < 2 {
		t.Fatalf("degree(9) = %d", net.Degree(9))
	}
	if len(net.Edges()) == 0 {
		t.Fatal("no edges")
	}
}

func TestParallelToggle(t *testing.T) {
	run := func(parallel bool) RepairCost {
		net, err := New(star(12))
		if err != nil {
			t.Fatal(err)
		}
		net.SetParallel(parallel)
		if err := net.Delete(0); err != nil {
			t.Fatal(err)
		}
		if err := net.Verify(); err != nil {
			t.Fatal(err)
		}
		return net.LastRepair()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("modes diverge: %+v vs %+v", a, b)
	}
}

func TestDeleteBatch(t *testing.T) {
	// Two stars joined by a long path: the two hubs damage disjoint
	// regions, so their repairs overlap in a single wave.
	var edges []Edge
	for i := 1; i < 8; i++ {
		edges = append(edges, Edge{U: 100, V: NodeID(100 + i)})
		edges = append(edges, Edge{U: 200, V: NodeID(200 + i)})
	}
	edges = append(edges, Edge{U: 101, V: 150}, Edge{U: 150, V: 151},
		Edge{U: 151, V: 152}, Edge{U: 152, V: 201})
	net, err := New(edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.DeleteBatch([]NodeID{100, 200}); err != nil {
		t.Fatal(err)
	}
	bc := net.LastBatch()
	if bc.Batch != 2 || bc.Groups != 2 || bc.Waves != 1 {
		t.Fatalf("batch cost = %+v, want 2 deletions in 2 groups, 1 wave", bc)
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	// Colliding pair: a hub and its ray serialize into 2 waves.
	net2, err := New(star(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := net2.DeleteBatch([]NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if bc := net2.LastBatch(); bc.Groups != 1 || bc.Waves != 2 {
		t.Fatalf("hub+ray batch cost = %+v, want 1 group, 2 waves", bc)
	}
	if err := net2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthFacade(t *testing.T) {
	// The same hub deletion under unlimited and B=1 bandwidth: the
	// healed graph must be identical, the congested run must report
	// congestion, and the unlimited one must not.
	free, err := New(star(16))
	if err != nil {
		t.Fatal(err)
	}
	if err := free.Delete(0); err != nil {
		t.Fatal(err)
	}
	capped, err := New(star(16))
	if err != nil {
		t.Fatal(err)
	}
	capped.SetBandwidth(1)
	capped.SetSpread(false) // bursty mode: maximal backlog
	if err := capped.Delete(0); err != nil {
		t.Fatal(err)
	}

	rcFree, rcCapped := free.LastRepair(), capped.LastRepair()
	if rcFree.CongestionRounds != 0 || rcFree.QueuedWords != 0 {
		t.Fatalf("unlimited run reported congestion: %+v", rcFree)
	}
	if rcCapped.CongestionRounds == 0 || rcCapped.MaxEdgeBacklog == 0 {
		t.Fatalf("capped run reported no congestion: %+v", rcCapped)
	}
	if rcCapped.Messages != rcFree.Messages {
		t.Fatalf("messages diverge: %d capped vs %d free", rcCapped.Messages, rcFree.Messages)
	}
	if rcCapped.Rounds < rcFree.Rounds {
		t.Fatalf("capped run finished in fewer rounds: %d vs %d", rcCapped.Rounds, rcFree.Rounds)
	}
	a, b := free.Edges(), capped.Edges()
	if len(a) != len(b) {
		t.Fatalf("healed graphs diverge: %d vs %d edges", len(a), len(b))
	}
	if err := capped.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncFacade drives the streaming API end to end through the
// public surface: submit a mix of valid and invalid operations, tick
// under caller control, and drain typed events.
func TestAsyncFacade(t *testing.T) {
	net, err := New(star(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Submit(
		DeleteOp(3),
		InsertOp(100, 1, 2),
		DeleteOp(3), // dead by then: rejected
	); err != nil {
		t.Fatal(err)
	}
	if net.Idle() {
		t.Fatal("engine idle with a repair submitted")
	}
	if net.Run(1000) == 0 {
		t.Fatal("Run advanced zero rounds")
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	var repairs, inserts, rejects int
	for _, ev := range net.Poll() {
		switch ev.Kind {
		case EventRepairDone:
			repairs++
			if ev.V != 3 || ev.Repair.Messages == 0 || ev.Repair.BTvSize == 0 {
				t.Fatalf("repair event: %+v", ev)
			}
		case EventInsertApplied:
			inserts++
		case EventOpRejected:
			rejects++
			if ev.Err == nil || ev.Op.Kind != OpDelete {
				t.Fatalf("rejection event: %+v", ev)
			}
		}
	}
	if repairs != 1 || inserts != 1 || rejects != 1 {
		t.Fatalf("events: %d repairs, %d inserts, %d rejects", repairs, inserts, rejects)
	}
	// An installed observer replaces the Poll buffer entirely.
	var streamed int
	net.SetObserver(func(Event) { streamed++ })
	if err := net.Submit(DeleteOp(7)); err != nil {
		t.Fatal(err)
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if streamed == 0 {
		t.Fatal("observer saw no events")
	}
	if evs := net.Poll(); len(evs) != 0 {
		t.Fatalf("Poll delivered %d events despite an installed observer", len(evs))
	}
	net.SetObserver(nil)
	if !net.Alive(100) || net.Alive(3) {
		t.Fatal("final liveness wrong")
	}
	if err := net.Verify(); err != nil {
		t.Fatal(err)
	}
	// Blocking calls refuse a busy engine but work once drained.
	if err := net.Submit(DeleteOp(5)); err != nil {
		t.Fatal(err)
	}
	if err := net.Delete(6); err == nil {
		t.Fatal("blocking Delete accepted while engine busy")
	}
	if err := net.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := net.Delete(6); err != nil {
		t.Fatal(err)
	}
}

// TestChanTransportFacade drives the full facade surface on the
// channel transport — blocking churn, the open-loop engine, events —
// and cross-checks the healed overlay against the simulator transport
// given the same operations.
func TestChanTransportFacade(t *testing.T) {
	run := func(kind TransportKind) *Network {
		net, err := New(star(12), WithTransport(kind))
		if err != nil {
			t.Fatal(err)
		}
		if got := net.Transport(); got != kind {
			t.Fatalf("Transport() = %v, want %v", got, kind)
		}
		if err := net.Insert(100, []NodeID{3, 5}); err != nil {
			t.Fatal(err)
		}
		if err := net.Delete(0); err != nil {
			t.Fatal(err)
		}
		if err := net.Submit(DeleteOp(3), DeleteOp(7)); err != nil {
			t.Fatal(err)
		}
		if err := net.Drain(); err != nil {
			t.Fatal(err)
		}
		repairs := 0
		for _, ev := range net.Poll() {
			if ev.Kind == EventRepairDone {
				repairs++
			}
		}
		if repairs != 2 {
			t.Fatalf("%v: %d async repairs, want 2", kind, repairs)
		}
		if err := net.DeleteBatch([]NodeID{5, 9}); err != nil {
			t.Fatal(err)
		}
		if err := net.Verify(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		return net
	}
	sim, chn := run(TransportSim), run(TransportChan)
	se, ce := sim.Edges(), chn.Edges()
	if len(se) != len(ce) {
		t.Fatalf("healed edge counts differ: sim %d, chan %d", len(se), len(ce))
	}
	for i := range se {
		if se[i] != ce[i] {
			t.Fatalf("healed edge %d differs: sim %v, chan %v", i, se[i], ce[i])
		}
	}
}

// TestParseTransport pins the command-line spellings.
func TestParseTransport(t *testing.T) {
	for s, want := range map[string]TransportKind{
		"sim": TransportSim, "simnet": TransportSim,
		"chan": TransportChan, "channel": TransportChan, "channet": TransportChan,
	} {
		got, err := ParseTransport(s)
		if err != nil || got != want {
			t.Fatalf("ParseTransport(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseTransport("udp"); err == nil {
		t.Fatal("unknown spelling must error")
	}
}
