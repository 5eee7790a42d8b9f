package transport

// This file defines the control plane the dist driver loop runs on:
// the driver-side contract a backend offers, whether delivery happens
// in frozen-world Step pulses (simnet, channet) or on real links
// between OS processes (internal/wirenet).
//
// The data plane is unchanged — handlers still see Endpoint, and the
// protocol neither knows nor cares which control plane drives it. The
// driver requests progress with Pulse, which blocks until the network
// reaches a quiescent point (nothing deliverable without firing a
// timer) and reports what happened, and releases the backend with
// Close. Between two Pulses no handler runs, so the driver may read
// processor state, add and remove nodes, and inject messages.
//
// Synchronous backends get this for free via NewDriver: Pulse is
// Step+Pending and Close does nothing.

// Quiet describes one quiescent point of the network: the moment a
// Pulse finished because nothing more was deliverable.
type Quiet struct {
	// Delivered is the number of messages and timers delivered by the
	// pulse that reached this quiescent point.
	Delivered int
	// Pending is the number of messages and timers still waiting
	// (armed timers that the pulse chose not to fire, typically).
	Pending int
}

// Driver is the substrate contract the dist driver loop runs on.
// Synchronous Transports are adapted by NewDriver; the wire backend
// implements it natively.
type Driver interface {
	Plane

	// Pulse requests one unit of progress and blocks until the
	// network quiesces: all deliverable traffic has been handed to
	// handlers and, if that produced nothing, at most one timer batch
	// has fired. It returns the quiescent point reached. When Pulse
	// returns, the caller is at a safe point: no handler is running
	// and none will run until the next Pulse (driver-originated sends
	// are buffered, not delivered).
	Pulse() Quiet
	// Close releases the backend's machinery (kills worker processes,
	// closes sockets). Safe to call multiple times.
	Close() error
}

// Unwrapper is implemented by Driver adapters that wrap a Transport.
// Capability probing (SkewClock, Validate, WorkerPIDs) must reach the
// *backend*, not the adapter, so probes type-assert on the Driver
// first and then on Unwrap's result; an adapter must not
// blanket-forward optional methods its backend does not have.
type Unwrapper interface {
	Unwrap() Transport
}

// NewDriver adapts a synchronous Transport into a Driver. If t already
// implements Driver (the wire backend does) it is returned unchanged.
func NewDriver(t Transport) Driver {
	if d, ok := t.(Driver); ok {
		return d
	}
	return syncDriver{t}
}

// syncDriver is the compatibility shim: a frozen-world Transport
// already satisfies the control plane trivially, because between
// Steps the whole world is one long safe point.
type syncDriver struct{ Transport }

func (d syncDriver) Pulse() Quiet {
	return Quiet{Delivered: d.Transport.Step(), Pending: d.Transport.Pending()}
}

func (d syncDriver) Close() error { return nil }

func (d syncDriver) Unwrap() Transport { return d.Transport }
