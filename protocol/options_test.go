package protocol

import (
	"os"
	"sort"
	"testing"

	"repro/internal/wirenet"
)

// TestMain lets the wire-transport tests spawn their shard worker
// processes by re-executing this test binary (see wirenet.MaybeWorker).
func TestMain(m *testing.M) {
	wirenet.MaybeWorker()
	os.Exit(m.Run())
}

// sortedEdges canonicalizes an edge list for comparison.
func sortedEdges(es []Edge) []Edge {
	out := append([]Edge(nil), es...)
	for i, e := range out {
		if e.U > e.V {
			out[i] = Edge{U: e.V, V: e.U}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// churn applies one fixed op sequence through the facade.
func churn(t *testing.T, n *Network) {
	t.Helper()
	if err := n.Insert(100, []NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := n.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := n.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestOptionsFacadeDifferential runs the same churn through New with
// each transport option and asserts the healed networks agree —
// the facade-level version of the transport-equivalence oracle.
func TestOptionsFacadeDifferential(t *testing.T) {
	builds := []struct {
		name string
		opts []Option
	}{
		{"sim-default", nil},
		{"sim-explicit", []Option{WithTransport(TransportSim)}},
		{"chan", []Option{WithTransport(TransportChan)}},
		{"wire", []Option{WithTransport(TransportWire), WithWireShards(3)}},
	}
	var refEdges []Edge
	var refAlive []NodeID
	for _, b := range builds {
		n, err := New(star(12), b.opts...)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		churn(t, n)
		edges := sortedEdges(n.Edges())
		alive := n.Nodes()
		if err := n.Close(); err != nil {
			t.Fatalf("%s: close: %v", b.name, err)
		}
		if refEdges == nil {
			refEdges, refAlive = edges, alive
			continue
		}
		if len(alive) != len(refAlive) {
			t.Fatalf("%s: %d live nodes, want %d", b.name, len(alive), len(refAlive))
		}
		for i := range alive {
			if alive[i] != refAlive[i] {
				t.Fatalf("%s: live set diverges at %d: %d vs %d", b.name, i, alive[i], refAlive[i])
			}
		}
		if len(edges) != len(refEdges) {
			t.Fatalf("%s: %d edges, want %d", b.name, len(edges), len(refEdges))
		}
		for i := range edges {
			if edges[i] != refEdges[i] {
				t.Fatalf("%s: healed edge %d diverges: %v vs %v", b.name, i, edges[i], refEdges[i])
			}
		}
	}
}

// TestOptionsApplyAtConstruction checks that the option-applied knobs
// observable through the facade actually took effect.
func TestOptionsApplyAtConstruction(t *testing.T) {
	var events int
	n, err := New(star(10),
		WithBandwidth(8),
		WithSpread(false),
		WithAudit(AuditConfig{Period: 16, Batch: 2}),
		WithObserver(func(Event) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if !n.AuditEnabled() {
		t.Fatal("WithAudit did not enable the audit layer")
	}
	if err := n.Delete(0); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("WithObserver saw no events")
	}
	if rc := n.LastRepair(); rc.QueuedWords == 0 && rc.CongestionRounds == 0 {
		t.Fatal("WithBandwidth(8) produced no congestion on a star repair")
	}
}
