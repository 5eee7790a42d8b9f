package transport

import "context"

// This file defines the asynchronous control plane: the driver-side
// contract a backend must offer when delivery happens on real links
// (goroutines today, TCP streams between OS processes in
// internal/wirenet) rather than in frozen-world Step pulses.
//
// The data plane is unchanged — handlers still see Endpoint, and the
// protocol neither knows nor cares which control plane drives it. What
// changes is how the *driver* observes the network: instead of calling
// Step and then freely reading state (valid only because nothing runs
// between Steps), an async driver
//
//   - starts the backend with Drive(ctx) and stops it with Close,
//   - requests progress with Pulse, which blocks until the network
//     reaches a quiescent point (nothing deliverable without firing a
//     timer) and reports what happened,
//   - watches Quiesced for unsolicited quiescence notifications, and
//   - schedules state reads with At, which runs a closure at a safe
//     point — a moment when no handler is running and none will start
//     until the closure returns.
//
// Synchronous backends get all of this for free via NewDriver: between
// Steps *every* point is a safe point, so Pulse is Step+Pending, At
// runs inline, and Drive is a no-op.

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

// Driver is the asynchronous substrate contract the dist driver loop
// runs on. Synchronous Transports are adapted by NewDriver; the wire
// backend implements it natively.
type Driver interface {
	Plane

	// Drive starts the backend's machinery (worker processes, link
	// readers) and returns once it is ready to deliver. The backend
	// shuts down when ctx is canceled or Close is called. Calling
	// Drive on an already-driven or synchronous backend is a no-op.
	Drive(ctx context.Context) error
	// Close releases everything Drive started (kills worker
	// processes, closes sockets). Safe to call multiple times and on
	// backends that were never driven.
	Close() error

	// Pulse requests one unit of progress and blocks until the
	// network quiesces: all deliverable traffic has been handed to
	// handlers and, if that produced nothing, at most one timer batch
	// has fired. It returns the quiescent point reached. When Pulse
	// returns, the caller is at a safe point: no handler is running
	// and none will run until the next Pulse (driver-originated sends
	// are buffered, not delivered).
	Pulse() Quiet
	// Quiesced reports quiescent points asynchronously: after each
	// Pulse the reached Quiet is published here (latest-wins, never
	// blocking the backend). Drivers that only Pulse synchronously may
	// ignore it; monitoring loops select on it.
	Quiesced() <-chan Quiet
	// At runs fn at a safe point — no handler running, none starting
	// until fn returns — and blocks until fn has run. Drivers use it
	// to read multi-part state (Stats + Pending + processor state)
	// consistently while the network is live.
	At(fn func())
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
	return &syncDriver{Transport: t, quiesced: make(chan Quiet, 1)}
}

// syncDriver is the compatibility shim: a frozen-world Transport
// already satisfies every control-plane obligation trivially, because
// between Steps the whole world is one long safe point.
type syncDriver struct {
	Transport
	quiesced chan Quiet
}

func (d *syncDriver) Drive(ctx context.Context) error { return nil }
func (d *syncDriver) Close() error                    { return nil }

func (d *syncDriver) Pulse() Quiet {
	q := Quiet{Delivered: d.Transport.Step(), Pending: d.Transport.Pending()}
	d.publish(q)
	return q
}

func (d *syncDriver) Quiesced() <-chan Quiet { return d.quiesced }

func (d *syncDriver) At(fn func()) { fn() }

func (d *syncDriver) Unwrap() Transport { return d.Transport }

// publish posts q latest-wins: an unread older notification is
// replaced rather than blocking the pulse.
func (d *syncDriver) publish(q Quiet) {
	for {
		select {
		case d.quiesced <- q:
			return
		default:
			select {
			case <-d.quiesced:
			default:
			}
		}
	}
}
