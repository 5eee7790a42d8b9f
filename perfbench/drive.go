package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wirenet"
)

// episode is one fresh simulation driven through the whole schedule.
type episode struct {
	setup   time.Duration   // backend, NewSimulationOn, SetCoalescing/EnableAudit
	drive   time.Duration   // first op to final idle: the timed window
	waves   []time.Duration // the drive split by schedule wave, then the final drain
	ticks   int
	retired int
	failed  int
	heal    []time.Duration // by Event.Seq: a completed delete's Submit → EventRepairDone, else 0
	traffic transport.Stats // banked across the resets inside DeleteBatch
	rounds  int
	hash    graphHash
	coal    dist.CoalesceStats
	mem     memDelta
	led     *ledger // nil when untraced
	err     error   // the first failed check
}

// graphHash fingerprints the healed network: the physical graph and G′.
type graphHash struct{ phys, gprime uint64 }

func (h graphHash) String() string {
	return fmt.Sprintf("physical=%016x gprime=%016x", h.phys, h.gprime)
}

// memDelta is the Go runtime's work over the timed window.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// runEpisode builds a fresh simulation over the input's network and
// drives its schedule through it in closed-loop waves, then runs the
// correctness gate; verify adds the full O(n) Verify. An engine still
// busy at deadline fails the episode. The returned error is an
// infrastructure failure (a wire worker that would not start or stop);
// failed checks are reported in episode.err.
func runEpisode(w workload, in input, onWire, traced, verify bool, deadline time.Time) (*episode, error) {
	g0, sc := in.g0, in.sc
	runtime.GC() // the previous episode's garbage is not this one's cost
	ep := &episode{}
	if traced {
		ep.led = newLedger()
	}
	start := time.Now()
	backend, err := newBackend(onWire)
	if err != nil {
		return nil, err
	}
	var net transport.Transport = backend
	if ep.led != nil {
		net = newTracedNet(backend, ep.led)
	}
	sim := dist.NewSimulationOn(g0, net)
	if w.coalesce {
		sim.SetCoalescing(dist.CoalesceConfig{Window: coalesceWindow})
	}
	if w.audit {
		if err := sim.EnableAudit(audit.Config{}); err != nil {
			closeSim(sim)
			return nil, err
		}
	}
	ep.setup = time.Since(start)

	ev := newEventLog(sc)
	sim.SetObserver(ev.observe)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	last := t0
	lap := func() {
		now := time.Now()
		ep.waves = append(ep.waves, now.Sub(last))
		last = now
	}
	for _, wv := range sc.waves {
		if wv.batch != nil {
			ep.deleteBatch(sim, backend, ev, wv.batch)
			lap()
			continue
		}
		for _, op := range wv.ops {
			ep.submit(sim, ev, op)
		}
		for i := 0; i < w.ticks; i++ {
			ep.tick(sim)
		}
		if w.ticks == 0 && !ep.drain(sim, deadline) {
			break
		}
		lap()
	}
	ep.drain(sim, deadline)
	lap()
	ep.drive = last.Sub(t0)
	runtime.ReadMemStats(&m1)
	ep.mem = memDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}

	bank(&ep.traffic, backend.Stats())
	ep.rounds = sim.Round()
	ep.coal = sim.CoalesceStats()
	ep.retired, ep.heal = ev.retired, ev.heal
	ep.failed = ev.failures()
	if ep.err == nil && ep.failed > 0 {
		ep.err = fmt.Errorf("%d ops rejected or without exactly one completion event", ep.failed)
	}
	if ep.err == nil {
		ep.err = ev.checkBatches()
	}
	if ep.err == nil && verify {
		ep.err = sim.Verify()
	}
	if ep.err == nil {
		if r, v := sim.MaxDegreeRatio(); r > maxDegreeRatio {
			ep.err = fmt.Errorf("degree ratio %.3f at node %d exceeds %d", r, v, maxDegreeRatio)
		}
	}
	ep.hash = graphHash{phys: hashGraph(sim.Physical()), gprime: hashGraph(sim.GPrime())}
	if ep.err != nil {
		ep.failed = sc.ops
	}
	return ep, closeSim(sim)
}

func newBackend(onWire bool) (transport.Transport, error) {
	if !onWire {
		return simnet.New(), nil
	}
	hub, err := wirenet.New(wirenet.Config{Shards: wireShards})
	if err != nil {
		return nil, err
	}
	return hub, nil
}

// closeSim releases the simulation's transport and waits until every
// worker process it spawned has exited.
func closeSim(sim *dist.Simulation) error {
	pids := sim.WorkerPIDs()
	if err := sim.Close(); err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for syscall.Kill(pid, 0) == nil {
			if time.Now().After(deadline) {
				return fmt.Errorf("wire worker %d still running after close", pid)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

func (ep *episode) submit(sim *dist.Simulation, ev *eventLog, op dist.Op) {
	start := time.Now()
	ev.submitted(op, start)
	err := sim.Submit(op)
	if ep.led != nil {
		ep.led.submit.add(time.Since(start))
	}
	if err != nil && ep.err == nil {
		ep.err = fmt.Errorf("submit %v: %w", op, err)
	}
}

// drain ticks until the engine is idle. It gives up at the deadline,
// so a change that keeps the engine busy forever fails its run instead
// of hanging it.
func (ep *episode) drain(sim *dist.Simulation, deadline time.Time) bool {
	for !sim.Idle() {
		ep.tick(sim)
		if ep.ticks%1024 == 0 && time.Now().After(deadline) {
			if ep.err == nil {
				ep.err = fmt.Errorf("engine still busy after %d ticks at the run's deadline", ep.ticks)
			}
			return false
		}
	}
	return true
}

func (ep *episode) tick(sim *dist.Simulation) {
	ep.ticks++
	l := ep.led
	if l == nil {
		sim.Tick()
		return
	}
	l.inTick = true
	start := time.Now()
	sim.Tick()
	l.tick.add(time.Since(start))
	l.inTick = false
	l.pendingSum += sim.PendingOps()
	l.inflightSum += sim.InFlight()
}

// deleteBatch issues one blocking DeleteBatch. The call resets the
// transport's stats, so the traffic before it is banked first; the
// batch's own traffic is then exactly LastBatch().Messages and is
// banked with whatever follows it.
func (ep *episode) deleteBatch(sim *dist.Simulation, backend transport.Transport, ev *eventLog, batch []dist.NodeID) {
	bank(&ep.traffic, backend.Stats())
	ev.batchMembers = append(ev.batchMembers, batch...)
	ev.batchCalls++
	start := time.Now()
	err := sim.DeleteBatch(batch)
	d := time.Since(start)
	lb := sim.LastBatch()
	if l := ep.led; l != nil {
		l.batch.add(d)
		l.batchClaimMsgs += lb.ClaimMessages
		l.batchClaimRounds += lb.ClaimRounds
	}
	if ep.err != nil {
		return
	}
	if err != nil {
		ep.err = fmt.Errorf("delete batch %v: %w", batch, err)
	} else if got := backend.Stats().Messages; got != lb.Messages {
		ep.err = fmt.Errorf("delete batch %v: transport counted %d messages, LastBatch %d", batch, got, lb.Messages)
	}
}

// bank adds the counters of one stats window to acc.
func bank(acc *transport.Stats, s transport.Stats) {
	acc.Messages += s.Messages
	acc.TotalWords += s.TotalWords
	acc.ElectionMessages += s.ElectionMessages
	acc.SyncMessages += s.SyncMessages
	acc.AuditMessages += s.AuditMessages
}

// eventLog tallies the engine's completion events against the ops the
// driver issued.
type eventLog struct {
	submitAt     []time.Time // by Event.Seq; index 0 unused
	isDelete     []bool
	done         []int // completion events per Seq
	batchMembers []dist.NodeID
	batchDone    map[dist.NodeID]int // EventRepairDone of batch members (Seq 0)
	batchCalls   int
	batchEvents  int
	rejected     int
	unknown      int
	retired      int
	heal         []time.Duration // by Seq
}

func newEventLog(sc *schedule) *eventLog {
	n := 1
	for _, wv := range sc.waves {
		n += len(wv.ops)
	}
	return &eventLog{
		submitAt:  make([]time.Time, 1, n),
		isDelete:  make([]bool, 1, n),
		done:      make([]int, n),
		heal:      make([]time.Duration, n),
		batchDone: make(map[dist.NodeID]int),
	}
}

func (ev *eventLog) submitted(op dist.Op, at time.Time) {
	ev.submitAt = append(ev.submitAt, at)
	ev.isDelete = append(ev.isDelete, op.Kind == dist.OpDelete)
}

// observe is the simulation's observer. An op retires when it completes
// or is cancelled as half of a coalesced pair.
func (ev *eventLog) observe(e dist.Event) {
	switch e.Kind {
	case dist.EventBatchDone:
		ev.batchEvents++
		return
	case dist.EventOpRejected:
		ev.rejected++
	default:
		ev.retired++
	}
	if e.Seq == 0 {
		ev.batchDone[e.V]++
		return
	}
	if e.Seq >= len(ev.submitAt) {
		ev.unknown++
		return
	}
	ev.done[e.Seq]++
	if e.Kind == dist.EventRepairDone && ev.isDelete[e.Seq] {
		ev.heal[e.Seq] = time.Since(ev.submitAt[e.Seq])
	}
}

// failures counts ops that were rejected or did not get exactly one
// completion event.
func (ev *eventLog) failures() int {
	failed := ev.rejected + ev.unknown
	for seq := 1; seq < len(ev.submitAt); seq++ {
		if ev.done[seq] != 1 {
			failed++
		}
	}
	for _, v := range ev.batchMembers {
		if ev.batchDone[v] != 1 {
			failed++
		}
	}
	return failed
}

func (ev *eventLog) checkBatches() error {
	if len(ev.batchDone) != len(ev.batchMembers) || ev.batchEvents != ev.batchCalls {
		return fmt.Errorf("batch events: %d repairs for %d members, %d batch events for %d calls",
			len(ev.batchDone), len(ev.batchMembers), ev.batchEvents, ev.batchCalls)
	}
	return nil
}

// hashGraph is an FNV-1a fingerprint of a graph's sorted node and edge
// lists.
func hashGraph(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(g.NumNodes()))
	for _, v := range g.Nodes() {
		put(int64(v))
	}
	for _, e := range g.Edges() {
		put(int64(e.U))
		put(int64(e.V))
	}
	return h.Sum64()
}
