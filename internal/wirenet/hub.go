// Package wirenet is the between-processes transport backend: the
// protocol's messages cross real TCP links between worker processes,
// while protocol state (handlers, logical clocks, timers, statistics)
// stays in the hub process where the driver can reach it.
//
// # Topology
//
// One hub (this process) plus k workers, each a shard of the message
// fabric spawned by re-executing the hub's own binary (MaybeWorker
// must therefore be the first call of any main/TestMain that builds a
// Hub). Worker a holds k lanes to the hub, one TCP connection per
// receiver shard c. A message from processor u to processor v travels
//
//	hub → worker shard(u) → hub
//
// as length-prefixed frames on lane (shard(u), shard(v)): the worker's
// relay rewrites the frame's kind byte and writes it straight back,
// and the hub runs the handler. Workers are stateless relays; the
// real-network transit is the point. Each lane is FIFO, but the k²
// lanes merge at the hub in whatever order TCP and the scheduler
// decide, so one sender shard's messages to two receiver shards can
// overtake each other, making wirenet a genuine adversarial scheduler
// in the way channet's goroutine races are, but across OS processes.
//
// # Ordering and reliability
//
// Every message carries a per-directed-edge sequence number. The hub
// delivers each edge strictly in sequence (out-of-order arrivals are
// held, duplicates discarded), which gives exactly-once FIFO per edge
// end-to-end no matter what the fabric does. Reliability is likewise
// end-to-end: the hub keeps every routed frame until its delivery
// returns, and when a worker dies (crash or kill -9) it respawns the
// shard, waits for all k of the new process's lanes, and retransmits
// everything outstanding, each edge on its own lane — duplicates from
// frames that survived in flight are shed by the sequence check.
// Losing a worker therefore loses no protocol state and no messages.
//
// # Driver contract
//
// Hub implements transport.Driver natively (Pulse blocks until the
// fabric quiesces, and handlers run only inside it, so between pulses
// the driver may read any state; Close reaps the workers) and
// transport.Transport (Step = Pulse().Delivered), so it slots into
// both the dist driver loop and every Transport-shaped test harness.
// Timer semantics mirror channet: per-processor Lamport clocks
// advanced on delivery, earliest-due timer batch fired only when
// message-idle. Traffic is booked through a transport.Traffic, like
// the in-process backends, and the bandwidth surface is
// transport.NoBandwidth.
package wirenet

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// NodeID identifies a processor, shared with package transport.
type NodeID = transport.NodeID

// maxPulseDeliveries bounds one Pulse's work, like channet: a pulse
// that delivers this much is a protocol livelock.
const maxPulseDeliveries = 1 << 22

var (
	_ transport.Transport = (*Hub)(nil)
	_ transport.Driver    = (*Hub)(nil)
)

// Config parameterizes a Hub.
type Config struct {
	// Shards is the number of worker processes; 0 means 4.
	Shards int
	// DrainTimeout is how long a Pulse waits without any fabric
	// progress before panicking with diagnostics; 0 means 60s.
	DrainTimeout time.Duration
}

// edgeKey identifies a directed edge.
type edgeKey struct{ from, to NodeID }

// workerProc is one live worker process.
type workerProc struct {
	shard, gen int
	cmd        *exec.Cmd
	lanes      []*sendq // lanes[c] carries messages to processors of shard c
}

// pendingSpawn is a worker process whose lanes are still saying hello.
type pendingSpawn struct {
	cmd    *exec.Cmd
	gen    int
	lanes  []helloEvt // by receiver shard; conn is nil until that lane's hello
	joined int
}

type helloEvt struct {
	shard, lane, pid int
	conn             net.Conn
	r                *bufio.Reader // carries bytes buffered past the hello
}

type downEvt struct{ shard, gen int }

// Hub is the driver-side endpoint of the wire backend. All methods
// except Close are executor-confined: they must be called from the
// driver goroutine (or from handlers, which the hub runs on the
// driver goroutine during Pulse), exactly the discipline the
// transport contract already imposes.
type Hub struct {
	transport.NoBandwidth

	k     int
	cfg   Config
	token string
	ln    net.Listener

	handlers map[NodeID]transport.Handler
	clocks   map[NodeID]int64
	timers   transport.Timers // hub-local: timers never cross the wire
	fired    []transport.Message

	round int
	seq   int

	edgeSeq  map[edgeKey]uint64          // next sequence to assign per edge
	edgeDone map[edgeKey]uint64          // highest delivered sequence per edge
	hold     map[edgeKey]map[uint64]wmsg // out-of-order arrivals awaiting their turn
	// outstanding holds the complete fkRoute body of every routed,
	// not yet delivered frame, kept for retransmission; no empty
	// entries. spareOut recycles drained inner maps for send.
	outstanding map[edgeKey]map[uint64][]byte
	spareOut    []map[uint64][]byte
	inflight    int

	traffic transport.Traffic

	gen       int
	workers   []*workerProc
	spawns    map[int]*pendingSpawn
	deliverCh chan wmsg
	downCh    chan downEvt
	helloCh   chan helloEvt

	closed atomic.Bool
}

// New builds the hub, spawns the worker fleet, and waits until every
// shard has connected. The returned Hub is ready to Pulse.
func New(cfg Config) (*Hub, error) {
	k := cfg.Shards
	if k == 0 {
		k = 4
	}
	if k < 1 {
		return nil, fmt.Errorf("wirenet: %d shards", k)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 60 * time.Second
	}
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		return nil, fmt.Errorf("wirenet: token: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("wirenet: listen: %w", err)
	}
	h := &Hub{
		k:           k,
		cfg:         cfg,
		token:       hex.EncodeToString(tok),
		ln:          ln,
		handlers:    make(map[NodeID]transport.Handler),
		clocks:      make(map[NodeID]int64),
		edgeSeq:     make(map[edgeKey]uint64),
		edgeDone:    make(map[edgeKey]uint64),
		hold:        make(map[edgeKey]map[uint64]wmsg),
		outstanding: make(map[edgeKey]map[uint64][]byte),
		workers:     make([]*workerProc, k),
		spawns:      make(map[int]*pendingSpawn),
		deliverCh:   make(chan wmsg, 1<<14),
		// A death is reported by each of its k lane readers and by
		// the reaper; stale reports are dropped at respawn.
		downCh:  make(chan downEvt, 2*k*(k+1)+64),
		helloCh: make(chan helloEvt, k*k),
	}
	go h.acceptLoop()
	for i := 0; i < k; i++ {
		if err := h.spawn(i); err != nil {
			h.Close()
			return nil, err
		}
	}
	for i := 0; i < k; i++ {
		if err := h.waitForWorker(i); err != nil {
			h.Close()
			return nil, err
		}
	}
	return h, nil
}

// spawn re-execs this binary as the given shard.
func (h *Hub) spawn(shard int) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("wirenet: executable path: %w", err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("%s=%d", envWorker, shard),
		fmt.Sprintf("%s=%d", envShards, h.k),
		fmt.Sprintf("%s=%s", envHub, h.ln.Addr().String()),
		fmt.Sprintf("%s=%s", envToken, h.token),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("wirenet: spawn shard %d: %w", shard, err)
	}
	h.gen++
	gen := h.gen
	h.spawns[shard] = &pendingSpawn{cmd: cmd, gen: gen, lanes: make([]helloEvt, h.k)}
	go func() {
		cmd.Wait()
		h.notifyDown(downEvt{shard: shard, gen: gen})
	}()
	return nil
}

// waitForWorker consumes hello events until the given shard's pending
// spawn has connected and been installed.
func (h *Hub) waitForWorker(shard int) error {
	deadline := time.After(30 * time.Second)
	for {
		if _, pending := h.spawns[shard]; !pending {
			return nil
		}
		select {
		case evt := <-h.helloCh:
			h.install(evt)
		case <-deadline:
			return fmt.Errorf("wirenet: shard %d did not connect", shard)
		}
	}
}

// install admits one lane of a pending spawn, and installs the shard
// once all k of its lanes have said hello. A lane whose hello names
// another process (a late dial from a killed generation) or repeats a
// lane is refused.
func (h *Hub) install(evt helloEvt) {
	ps, ok := h.spawns[evt.shard]
	if !ok || evt.pid != ps.cmd.Process.Pid || ps.lanes[evt.lane].conn != nil {
		evt.conn.Close()
		return
	}
	ps.lanes[evt.lane] = evt
	if ps.joined++; ps.joined < h.k {
		return
	}
	delete(h.spawns, evt.shard)
	wp := &workerProc{shard: evt.shard, gen: ps.gen, cmd: ps.cmd, lanes: make([]*sendq, h.k)}
	for c, l := range ps.lanes {
		wp.lanes[c] = newSendq(l.conn)
		go h.readLane(wp, l.r)
	}
	h.workers[evt.shard] = wp
}

// acceptLoop admits worker connections and forwards their hellos.
func (h *Hub) acceptLoop() {
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			r := bufio.NewReader(conn)
			body, err := readFrame(r, nil)
			conn.SetReadDeadline(time.Time{})
			if err != nil || body[0] != fkHello {
				conn.Close()
				return
			}
			d := decoder{data: body[1:]}
			shard, lane, pid := d.uvarint(), d.uvarint(), d.uvarint()
			token := d.string()
			if d.err != nil || token != h.token || shard >= uint64(h.k) || lane >= uint64(h.k) {
				conn.Close()
				return
			}
			h.helloCh <- helloEvt{shard: int(shard), lane: int(lane), pid: int(pid), conn: conn, r: r}
		}(conn)
	}
}

// readLane passes one lane's delivered frames to the executor's
// channel until the connection dies. It waits on nothing but that
// channel, which every Pulse drains, so a relay blocked writing to
// this lane always makes progress.
func (h *Hub) readLane(wp *workerProc, r *bufio.Reader) {
	for {
		body, err := readFrame(r, nil)
		if err != nil {
			h.notifyDown(downEvt{shard: wp.shard, gen: wp.gen})
			return
		}
		if body[0] != fkDeliver {
			continue
		}
		m, err := parseWmsg(body[1:])
		if err != nil {
			continue
		}
		h.deliverCh <- m
	}
}

func (h *Hub) notifyDown(evt downEvt) {
	select {
	case h.downCh <- evt:
	default:
	}
}

// respawn replaces a dead worker and retransmits everything
// outstanding. Stale notifications (each lane reader and the reaper
// report one death; retransmitted-over generations linger) are
// filtered by generation.
func (h *Hub) respawn(evt downEvt) {
	if h.closed.Load() {
		return
	}
	wp := h.workers[evt.shard]
	if wp == nil || wp.gen != evt.gen {
		return
	}
	for _, l := range wp.lanes {
		l.stop()
	}
	wp.cmd.Process.Kill()
	h.workers[evt.shard] = nil
	if err := h.spawn(evt.shard); err != nil {
		panic(fmt.Sprintf("wirenet: respawn shard %d: %v", evt.shard, err))
	}
	if err := h.waitForWorker(evt.shard); err != nil {
		panic(fmt.Sprintf("wirenet: respawn shard %d: %v", evt.shard, err))
	}
	h.retransmit()
}

// retransmit re-injects every outstanding frame, per edge in sequence
// order on the edge's own lane. Frames that survived in flight arrive
// twice and are shed by the hub's per-edge sequence check; frames lost
// with the dead worker arrive once. Either way every edge stays
// exactly-once FIFO.
func (h *Hub) retransmit() {
	edges := make([]edgeKey, 0, len(h.outstanding))
	for e, out := range h.outstanding {
		if len(out) > 0 {
			edges = append(edges, e)
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].from != edges[j].from {
			return edges[i].from < edges[j].from
		}
		return edges[i].to < edges[j].to
	})
	for _, e := range edges {
		out := h.outstanding[e]
		seqs := make([]uint64, 0, len(out))
		for s := range out {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		l := h.lane(e)
		for _, s := range seqs {
			l.send(out[s])
		}
	}
}

// --- transport.Plane ---

// AddNode registers a processor. Re-registering replaces the handler.
func (h *Hub) AddNode(id NodeID, hd transport.Handler) {
	if hd == nil {
		panic("wirenet: nil handler")
	}
	h.handlers[id] = hd
	if _, ok := h.clocks[id]; !ok {
		h.clocks[id] = 0
	}
}

// RemoveNode unregisters a processor. Outstanding messages to it are
// dropped and counted now — the Plane contract's single counting
// point — and its armed timers are purged uncounted. Copies of the
// purged messages still in TCP flight are shed on arrival by the
// outstanding-set check, uncounted (they were counted here).
func (h *Hub) RemoveNode(id NodeID) {
	delete(h.handlers, id)
	delete(h.clocks, id)
	for e, out := range h.outstanding {
		if e.to != id {
			continue
		}
		if n := len(out); n > 0 {
			h.traffic.Drop(n)
			h.inflight -= n
		}
		delete(h.outstanding, e)
		delete(h.hold, e)
	}
	h.timers.RemoveOwner(id)
}

// SkewClock perturbs one processor's logical clock by delta (fault
// injection for the self-stabilization tests, as on channet).
func (h *Hub) SkewClock(id NodeID, delta int64) {
	if _, ok := h.handlers[id]; ok {
		h.clocks[id] += delta
	}
}

// Validate checks backend invariants: clocks non-negative, timers
// owned by registered processors, inflight consistent with the
// outstanding set.
func (h *Hub) Validate() error {
	for id, c := range h.clocks {
		if c < 0 {
			return fmt.Errorf("wirenet: processor %d has negative logical clock %d", id, c)
		}
	}
	var err error
	h.timers.EachOwner(func(owner NodeID) {
		if _, ok := h.handlers[owner]; !ok {
			err = fmt.Errorf("wirenet: armed timer owned by unregistered processor %d", owner)
		}
	})
	if err != nil {
		return err
	}
	n := 0
	for _, out := range h.outstanding {
		n += len(out)
	}
	if n != h.inflight {
		return fmt.Errorf("wirenet: inflight %d != outstanding %d", h.inflight, n)
	}
	return nil
}

// Round returns the macro-pulse counter.
func (h *Hub) Round() int { return h.round }

// Send enqueues a message for asynchronous delivery. Words must be at
// least 1.
func (h *Hub) Send(from, to NodeID, payload any, words int) {
	h.SendClass(from, to, payload, words, transport.ClassData)
}

// SendClass is Send with an explicit accounting class. Sends to dead
// targets drop and count here (the normalized counting point); live
// sends are encoded and injected into the fabric at shard(from).
func (h *Hub) SendClass(from, to NodeID, payload any, words int, class transport.Class) {
	if words < 1 {
		panic(fmt.Sprintf("wirenet: message with %d words", words))
	}
	h.seq++
	if _, ok := h.handlers[to]; !ok {
		h.traffic.Drop(1)
		return
	}
	pb, err := encodePayload(nil, payload)
	if err != nil {
		panic(err)
	}
	e := edgeKey{from: from, to: to}
	h.edgeSeq[e]++
	m := wmsg{
		From: from, To: to,
		EdgeSeq: h.edgeSeq[e], GSeq: h.seq,
		At: h.clocks[from], Class: class, Words: words,
		Payload: pb,
	}
	frame := appendWmsg([]byte{fkRoute}, m)
	out := h.outstanding[e]
	if out == nil {
		if n := len(h.spareOut); n > 0 {
			out = h.spareOut[n-1]
			h.spareOut = h.spareOut[:n-1]
		} else {
			out = make(map[uint64][]byte)
		}
		h.outstanding[e] = out
	}
	out[m.EdgeSeq] = frame
	h.inflight++
	if l := h.lane(e); l != nil {
		l.send(frame)
	}
	// A nil lane (mid-respawn) is fine: the frame is outstanding and
	// goes out with the retransmit.
}

// shardOf maps a processor to its shard.
func shardOf(id NodeID, k int) int {
	s := int(int64(id) % int64(k))
	if s < 0 {
		s += k
	}
	return s
}

// lane returns the queue that carries edge e's frames, every one of
// them, retransmits included: the lane of shard(from) toward
// shard(to). It is nil while shard(from) respawns.
func (h *Hub) lane(e edgeKey) *sendq {
	wp := h.workers[shardOf(e.from, h.k)]
	if wp == nil {
		return nil
	}
	return wp.lanes[shardOf(e.to, h.k)]
}

// SendTimer arms a local wake-up after delay ticks of the owner's
// logical clock. Timers are hub-local and never cross the wire.
func (h *Hub) SendTimer(owner NodeID, payload any, delay int) {
	if delay < 1 {
		panic(fmt.Sprintf("wirenet: timer with delay %d", delay))
	}
	h.seq++
	h.timers.Arm(owner, h.clocks[owner]+int64(delay), h.seq, payload)
}

// Pending reports undelivered messages plus armed timers.
func (h *Hub) Pending() int { return h.inflight + h.timers.Len() }

// Dropped returns the number of network messages addressed to dead
// processors.
func (h *Hub) Dropped() int { return h.traffic.Dropped() }

// Stats returns a copy of the traffic statistics.
func (h *Hub) Stats() transport.Stats { return h.traffic.Stats() }

// ResetStats zeroes the traffic statistics.
func (h *Hub) ResetStats() { h.traffic.ResetStats() }

// --- driving ---

// Step satisfies transport.Transport: one Pulse's deliveries.
func (h *Hub) Step() int { return h.Pulse().Delivered }

// Pulse drives the fabric to a quiescent point: deliver until nothing
// is in flight; if that delivered nothing and timers are armed, fire
// the earliest-due batch and drain its cascade. Mirrors channet's
// Step structure.
func (h *Hub) Pulse() transport.Quiet {
	// Handle worker deaths noticed while idle.
	for {
		select {
		case evt := <-h.downCh:
			h.respawn(evt)
			continue
		default:
		}
		break
	}
	h.round++
	delivered := h.drain()
	if delivered == 0 {
		if fired := h.fireEarliest(); fired > 0 {
			delivered = fired + h.drain()
		}
	}
	h.traffic.EndPulse(delivered)
	return transport.Quiet{Delivered: delivered, Pending: h.Pending()}
}

// drain runs handler deliveries until no message is in flight,
// respawning workers that die along the way.
func (h *Hub) drain() int {
	if h.inflight == 0 {
		return 0
	}
	delivered := 0
	idle := time.NewTimer(h.cfg.DrainTimeout)
	defer idle.Stop()
	for h.inflight > 0 {
		select {
		case m := <-h.deliverCh:
			delivered += h.accept(m)
		case evt := <-h.downCh:
			h.respawn(evt)
		case <-idle.C:
			panic(fmt.Sprintf("wirenet: no fabric progress in %v (%d inflight, %d delivered this pulse)",
				h.cfg.DrainTimeout, h.inflight, delivered))
		}
		if delivered > maxPulseDeliveries {
			panic("wirenet: runaway pulse (protocol livelock?)")
		}
		if !idle.Stop() {
			select {
			case <-idle.C:
			default:
			}
		}
		idle.Reset(h.cfg.DrainTimeout)
	}
	return delivered
}

// accept applies the per-edge ordering to one arrival: deliver it if
// it is the edge's next sequence (then chain any held successors),
// hold it if early, shed it if duplicate or purged.
func (h *Hub) accept(m wmsg) int {
	e := edgeKey{from: m.From, to: m.To}
	out := h.outstanding[e]
	if out == nil {
		return 0
	}
	if _, live := out[m.EdgeSeq]; !live {
		return 0 // duplicate, or purged with a dead target
	}
	if m.EdgeSeq != h.edgeDone[e]+1 {
		hl := h.hold[e]
		if hl == nil {
			hl = make(map[uint64]wmsg)
			h.hold[e] = hl
		}
		hl[m.EdgeSeq] = m
		return 0
	}
	count := 0
	h.deliver(e, m)
	count++
	for {
		next, held := h.hold[e][h.edgeDone[e]+1]
		if !held {
			break
		}
		delete(h.hold[e], next.EdgeSeq)
		h.deliver(e, next)
		count++
	}
	return count
}

// deliver hands one in-order message to its handler: advance the
// receiver's Lamport clock, decode the payload, book the stats, run.
// An edge whose last outstanding frame this was leaves the outstanding
// set (nothing is held for it either: held frames are outstanding), so
// RemoveNode and Validate scan only edges with traffic in flight; a late duplicate finds no entry and accept sheds it.
func (h *Hub) deliver(e edgeKey, m wmsg) {
	out := h.outstanding[e]
	delete(out, m.EdgeSeq)
	if len(out) == 0 {
		delete(h.outstanding, e)
		delete(h.hold, e)
		h.spareOut = append(h.spareOut, out)
	}
	h.edgeDone[e] = m.EdgeSeq
	h.inflight--
	hd, ok := h.handlers[m.To]
	if !ok {
		// Unreachable: frames to dead targets are purged from the
		// outstanding set at RemoveNode, which also counted them.
		return
	}
	p, err := decodePayload(m.Payload)
	if err != nil {
		panic(fmt.Sprintf("wirenet: %v→%v seq %d: %v", m.From, m.To, m.EdgeSeq, err))
	}
	if c := h.clocks[m.To]; m.At > c {
		h.clocks[m.To] = m.At
	}
	h.clocks[m.To]++
	msg := transport.Message{
		From: m.From, To: m.To, Payload: p,
		Words: m.Words, Class: m.Class, Seq: m.GSeq,
	}
	h.traffic.Deliver(msg)
	hd(h, msg)
}

// fireEarliest delivers the earliest-due timer batch (all timers tied
// at the minimum due) in (owner, seq) order, stamping each owner's
// clock to at least its due tick — channet's exact semantics, except
// the handler runs inline (timers never enter the fabric).
func (h *Hub) fireEarliest() int {
	batch, due := h.timers.PopEarliest(h.fired[:0])
	fired := 0
	for _, m := range batch {
		hd, ok := h.handlers[m.From]
		if !ok {
			continue // armed for a processor never registered
		}
		at := due - 1
		if c := h.clocks[m.From]; at > c {
			h.clocks[m.From] = at
		}
		h.clocks[m.From]++
		h.traffic.Deliver(m)
		hd(h, m)
		fired++
	}
	clear(batch)
	h.fired = batch[:0]
	return fired
}

// Close shuts the fleet down: a courtesy shutdown frame, then SIGKILL.
// Safe to call multiple times; concurrent with a running Pulse only
// during teardown.
func (h *Hub) Close() error {
	if h.closed.Swap(true) {
		return nil
	}
	for _, wp := range h.workers {
		if wp == nil {
			continue
		}
		for _, l := range wp.lanes {
			l.send([]byte{fkShutdown})
			l.close()
		}
	}
	for _, ps := range h.spawns {
		ps.cmd.Process.Kill()
		for _, l := range ps.lanes {
			if l.conn != nil {
				l.conn.Close()
			}
		}
	}
	h.ln.Close()
	for _, wp := range h.workers {
		if wp == nil {
			continue
		}
		// The shutdown frame is a courtesy; the kill is the guarantee.
		wp.cmd.Process.Kill()
	}
	return nil
}

// --- test hooks ---

// Shards returns the worker count.
func (h *Hub) Shards() int { return h.k }

// WorkerPIDs returns the live workers' process IDs (the p2pchurn demo
// prints them; the kill-9 test picks a victim).
func (h *Hub) WorkerPIDs() []int {
	pids := make([]int, 0, h.k)
	for _, wp := range h.workers {
		if wp != nil {
			pids = append(pids, wp.cmd.Process.Pid)
		}
	}
	return pids
}

// KillWorker SIGKILLs one shard's process — the physical analogue of
// the footprint corruption mode. The hub notices via the dead
// connection and respawns the shard with full retransmission; the
// protocol must heal identically.
func (h *Hub) KillWorker(shard int) error {
	if shard < 0 || shard >= h.k || h.workers[shard] == nil {
		return fmt.Errorf("wirenet: no worker for shard %d", shard)
	}
	return h.workers[shard].cmd.Process.Kill()
}
