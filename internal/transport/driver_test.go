package transport_test

import (
	"context"
	"testing"

	"repro/internal/channet"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// TestSyncDriverShim exercises the compatibility adapter over simnet:
// Pulse is Step+Pending, At runs inline at the (ever-present) safe
// point, Quiesced carries latest-wins notifications, and capability
// probing reaches the wrapped backend only via Unwrap.
func TestSyncDriverShim(t *testing.T) {
	net := simnet.New()
	d := transport.NewDriver(net)

	if err := d.Drive(context.Background()); err != nil {
		t.Fatalf("Drive: %v", err)
	}
	defer d.Close()

	got := 0
	d.AddNode(1, func(e transport.Endpoint, m transport.Message) { got++ })
	d.AddNode(2, func(e transport.Endpoint, m transport.Message) {
		got++
		e.Send(2, 1, "reply", 1)
	})
	d.Send(1, 2, "ping", 1)

	q := d.Pulse()
	if q.Delivered != 1 || q.Pending != 1 {
		t.Fatalf("first Pulse = %+v, want {Delivered:1 Pending:1}", q)
	}
	select {
	case nq := <-d.Quiesced():
		if nq != q {
			t.Fatalf("Quiesced notification %+v != Pulse result %+v", nq, q)
		}
	default:
		t.Fatal("no quiescence notification after Pulse")
	}

	// Unread notifications are replaced, not queued: after two more
	// pulses only the latest is readable.
	q2 := d.Pulse()
	q3 := d.Pulse()
	_ = q2
	select {
	case nq := <-d.Quiesced():
		if nq != q3 {
			t.Fatalf("latest-wins notification %+v, want %+v", nq, q3)
		}
	default:
		t.Fatal("no quiescence notification after later Pulses")
	}
	if got != 2 {
		t.Fatalf("handlers ran %d times, want 2", got)
	}

	ran := false
	d.At(func() { ran = true })
	if !ran {
		t.Fatal("At did not run the closure")
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
