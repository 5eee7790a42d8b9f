package transport_test

import (
	"testing"

	"repro/internal/channet"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSyncDriverShim exercises the compatibility adapter over simnet:
// Pulse is Step+Pending, Close does nothing, and capability probing
// reaches the wrapped backend only via Unwrap.
func TestSyncDriverShim(t *testing.T) {
	net := simnet.New()
	d := transport.NewDriver(net)

	got := 0
	d.AddNode(1, func(e transport.Endpoint, m transport.Message) { got++ })
	d.AddNode(2, func(e transport.Endpoint, m transport.Message) {
		got++
		e.Send(2, 1, "reply", 1)
	})
	d.Send(1, 2, "ping", 1)

	if q := d.Pulse(); q != (transport.Quiet{Delivered: 1, Pending: 1}) {
		t.Fatalf("first Pulse = %+v, want {Delivered:1 Pending:1}", q)
	}
	if q := d.Pulse(); q != (transport.Quiet{Delivered: 1, Pending: 0}) {
		t.Fatalf("second Pulse = %+v, want {Delivered:1 Pending:0}", q)
	}
	if q := d.Pulse(); q != (transport.Quiet{}) {
		t.Fatalf("Pulse on a drained network = %+v, want zero", q)
	}
	if got != 2 {
		t.Fatalf("handlers ran %d times, want 2", got)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The shim must not impersonate backend capabilities: probes reach
	// the backend through Unwrap, and the wrapped simnet is returned
	// identically. simnet has no Validate, so the shim must not offer
	// one; a wrapped channet, which has it, must still be reachable.
	uw, ok := d.(transport.Unwrapper)
	if !ok {
		t.Fatal("sync shim does not implement Unwrapper")
	}
	if uw.Unwrap() != transport.Transport(net) {
		t.Fatal("Unwrap did not return the wrapped backend")
	}
	type validator interface{ Validate() error }
	if _, ok := d.(validator); ok {
		t.Fatal("sync shim offers Validate, which its simnet backend lacks")
	}
	cd := transport.NewDriver(channet.New())
	if _, ok := cd.(transport.Unwrapper).Unwrap().(validator); !ok {
		t.Fatal("unwrapped channet lost its Validate capability")
	}

	// A Driver passed to NewDriver comes back unchanged.
	if transport.NewDriver(d.(transport.Transport)) != transport.Driver(d) {
		t.Fatal("NewDriver re-wrapped an existing Driver")
	}
}
