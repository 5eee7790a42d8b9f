package main

import (
	"reflect"
	"time"

	"repro/internal/transport"
)

// span accumulates the calls into one layer boundary.
type span struct {
	n int
	d time.Duration
}

func (s *span) add(d time.Duration) {
	s.n++
	s.d += d
}

func (s *span) merge(o span) {
	s.n += o.n
	s.d += o.d
}

// ledger is the traced run's per-layer account of one episode. Every
// span is timed from outside the program: the driver times its calls
// into dist (Submit, Tick, DeleteBatch), and tracedNet times dist's
// calls into the transport (Pulse, sends) and the transport's calls
// into dist (handlers). Handlers run on the driver goroutine on both
// backends, so plain fields suffice.
type ledger struct {
	submit, tick, batch span
	pulse               span
	pulseInTick         span // the Pulses a Tick makes; DeleteBatch pulses too
	handler             span
	send                span
	sendInHandler       time.Duration
	payload             map[reflect.Type]*span

	// pendingSum and inflightSum add up PendingOps()/InFlight() after
	// every traced Tick.
	pendingSum, inflightSum int
	batchClaimMsgs          int
	batchClaimRounds        int

	inTick bool
	ep     tracedEndpoint
}

func newLedger() *ledger {
	l := &ledger{payload: make(map[reflect.Type]*span)}
	l.ep.led = l
	return l
}

// merge adds o's spans and counts into l (payload breakdown excluded).
func (l *ledger) merge(o *ledger) {
	l.submit.merge(o.submit)
	l.tick.merge(o.tick)
	l.batch.merge(o.batch)
	l.pulse.merge(o.pulse)
	l.handler.merge(o.handler)
	l.send.merge(o.send)
	l.pulseInTick.merge(o.pulseInTick)
	l.sendInHandler += o.sendInHandler
	l.pendingSum += o.pendingSum
	l.inflightSum += o.inflightSum
	l.batchClaimMsgs += o.batchClaimMsgs
	l.batchClaimRounds += o.batchClaimRounds
}

// covered is the time the driver spent inside dist's API; it must
// account for (nearly) all of the traced episode's wall time.
func (l *ledger) covered() time.Duration { return l.submit.d + l.tick.d + l.batch.d }

// tracedNet is the traced run's transport: it wraps the backend and
// forwards every call, timing Pulse, sends and handlers. It is a
// transport.Driver, so dist drives it natively, and a
// transport.Unwrapper returning the backend, so dist's capability
// probes (CancelTimers, SkewClock, Validate, WorkerPIDs) still reach
// the backend — a wrapper hiding them would change behaviour.
type tracedNet struct {
	transport.Driver
	backend transport.Transport
	led     *ledger
}

func newTracedNet(backend transport.Transport, led *ledger) *tracedNet {
	return &tracedNet{Driver: transport.NewDriver(backend), backend: backend, led: led}
}

func (t *tracedNet) Unwrap() transport.Transport { return t.backend }

func (t *tracedNet) Step() int { return t.Pulse().Delivered }

func (t *tracedNet) Pulse() transport.Quiet {
	start := time.Now()
	q := t.Driver.Pulse()
	d := time.Since(start)
	t.led.pulse.add(d)
	if t.led.inTick {
		t.led.pulseInTick.add(d)
	}
	return q
}

func (t *tracedNet) Send(from, to transport.NodeID, payload any, words int) {
	t.SendClass(from, to, payload, words, transport.ClassData)
}

func (t *tracedNet) SendClass(from, to transport.NodeID, payload any, words int, class transport.Class) {
	start := time.Now()
	t.Driver.SendClass(from, to, payload, words, class)
	t.led.send.add(time.Since(start))
}

// AddNode registers h behind a timing shim. The shim hands h the
// ledger's one tracedEndpoint: handlers never nest and never retain
// their endpoint, so a single reusable value serves every call.
func (t *tracedNet) AddNode(id transport.NodeID, h transport.Handler) {
	l := t.led
	t.Driver.AddNode(id, func(ep transport.Endpoint, m transport.Message) {
		l.ep.Endpoint = ep
		start := time.Now()
		h(&l.ep, m)
		d := time.Since(start)
		l.handler.add(d)
		typ := reflect.TypeOf(m.Payload)
		sp := l.payload[typ]
		if sp == nil {
			sp = &span{}
			l.payload[typ] = sp
		}
		sp.add(d)
	})
}

// tracedEndpoint is the Endpoint handlers see in the traced run: the
// backend's own, with sends timed.
type tracedEndpoint struct {
	transport.Endpoint
	led *ledger
}

func (e *tracedEndpoint) Send(from, to transport.NodeID, payload any, words int) {
	e.SendClass(from, to, payload, words, transport.ClassData)
}

func (e *tracedEndpoint) SendClass(from, to transport.NodeID, payload any, words int, class transport.Class) {
	start := time.Now()
	e.Endpoint.SendClass(from, to, payload, words, class)
	d := time.Since(start)
	e.led.send.add(d)
	e.led.sendInHandler += d
}
