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
// Hub). A message from processor u to processor v travels
//
//	hub → worker shard(u) → worker shard(v) → hub
//
// over length-prefixed TCP frames: the hub injects at the sender's
// shard, workers forward over the per-pair peer link, and the
// receiving shard hands the message back to the hub, which runs the
// handler. Workers are stateless routers; the real-network transit is
// the point — arrival order at the hub is decided by TCP scheduling
// across 2–3 hops, making wirenet a genuine adversarial scheduler in
// the way channet's goroutine races are, but across OS processes.
//
// # Ordering and reliability
//
// Every message carries a per-directed-edge sequence number. The hub
// delivers each edge strictly in sequence (out-of-order arrivals are
// held, duplicates discarded), which gives exactly-once FIFO per edge
// end-to-end no matter what the fabric does. Reliability is likewise
// end-to-end: the hub keeps every routed frame until its delivery
// returns, and when a worker dies (crash or kill -9) it respawns the
// shard, re-announces the peer directory, and retransmits everything
// outstanding — duplicates from frames that survived in flight are
// shed by the sequence check. Losing a worker therefore loses no
// protocol state and no messages.
//
// # Driver contract
//
// Hub implements transport.Driver natively (Pulse blocks until the
// fabric quiesces; At runs between pulses where no handler can run)
// and transport.Transport (Step = Pulse().Delivered), so it slots into
// both the new async driver loop and every Transport-shaped test
// harness. Timer semantics mirror channet: per-processor Lamport
// clocks advanced on delivery, earliest-due timer batch fired only
// when message-idle.
package wirenet

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
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

// outFrame is one routed-but-undelivered message the hub retains for
// retransmission.
type outFrame struct {
	frame []byte // the complete fkRoute body
	words int
}

// timerRec is an armed logical-clock timer (hub-local; timers never
// cross the wire).
type timerRec struct {
	owner NodeID
	due   int64
	seq   int
	msg   transport.Message
}

// workerProc is one live worker process.
type workerProc struct {
	shard, gen int
	cmd        *exec.Cmd
	conn       net.Conn
	out        *sendq
	addr       string // the worker's peer-listener address
}

type pendingSpawn struct {
	cmd *exec.Cmd
	gen int
}

type helloEvt struct {
	shard int
	addr  string
	conn  net.Conn
	r     *bufio.Reader // carries bytes buffered past the hello
}

type downEvt struct{ shard, gen int }

// Hub is the driver-side endpoint of the wire backend. All methods
// except Close are executor-confined: they must be called from the
// driver goroutine (or from handlers, which the hub runs on the
// driver goroutine during Pulse), exactly the discipline the
// transport contract already imposes.
type Hub struct {
	k     int
	cfg   Config
	token string
	ln    net.Listener

	handlers map[NodeID]transport.Handler
	clocks   map[NodeID]int64
	timers   []timerRec

	round int
	seq   int

	edgeSeq     map[edgeKey]uint64              // next sequence to assign per edge
	edgeDone    map[edgeKey]uint64              // highest delivered sequence per edge
	hold        map[edgeKey]map[uint64]wmsg     // out-of-order arrivals awaiting their turn
	outstanding map[edgeKey]map[uint64]outFrame // routed, not yet delivered; no empty entries
	spareOut    []map[uint64]outFrame           // drained inner maps, reused by send
	inflight    int

	stats                          transport.Stats
	sentBy                         map[NodeID]int
	dropped                        int
	sawElection, sawSync, sawAudit bool

	gen       int
	workers   []*workerProc
	spawns    map[int]pendingSpawn
	deliverCh chan wmsg
	downCh    chan downEvt
	helloCh   chan helloEvt

	quiesced chan transport.Quiet
	closed   atomic.Bool
	closeErr error
}

// New builds the hub, spawns the worker fleet, and waits until every
// shard has connected. The returned Hub is ready to Pulse; Drive is
// only needed to tie shutdown to a context.
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
		outstanding: make(map[edgeKey]map[uint64]outFrame),
		sentBy:      make(map[NodeID]int),
		workers:     make([]*workerProc, k),
		spawns:      make(map[int]pendingSpawn),
		deliverCh:   make(chan wmsg, 1<<14),
		downCh:      make(chan downEvt, 8*k+64),
		helloCh:     make(chan helloEvt, k),
		quiesced:    make(chan transport.Quiet, 1),
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
	h.broadcastPeers()
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
	h.spawns[shard] = pendingSpawn{cmd: cmd, gen: gen}
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

// install registers a connected worker and starts its reader.
func (h *Hub) install(evt helloEvt) {
	ps, ok := h.spawns[evt.shard]
	if !ok {
		evt.conn.Close()
		return
	}
	delete(h.spawns, evt.shard)
	wp := &workerProc{
		shard: evt.shard, gen: ps.gen, cmd: ps.cmd,
		conn: evt.conn, out: newSendq(evt.conn), addr: evt.addr,
	}
	h.workers[evt.shard] = wp
	go h.readWorker(wp, evt.r)
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
			body, err := readFrame(r)
			conn.SetReadDeadline(time.Time{})
			if err != nil || body[0] != fkHello {
				conn.Close()
				return
			}
			d := decoder{data: body[1:]}
			shard := int(d.uvarint())
			token := d.string()
			addr := d.string()
			if d.err != nil || token != h.token || shard < 0 || shard >= h.k {
				conn.Close()
				return
			}
			h.helloCh <- helloEvt{shard: shard, addr: addr, conn: conn, r: r}
		}(conn)
	}
}

// readWorker relays delivered frames into the executor's channel
// until the connection dies.
func (h *Hub) readWorker(wp *workerProc, r *bufio.Reader) {
	for {
		body, err := readFrame(r)
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

// broadcastPeers sends the current shard directory to every worker.
func (h *Hub) broadcastPeers() {
	body := []byte{fkPeers}
	body = binary.AppendUvarint(body, uint64(h.k))
	for _, wp := range h.workers {
		if wp == nil {
			return
		}
		body = binary.AppendUvarint(body, uint64(wp.shard))
		body = appendString(body, wp.addr)
	}
	for _, wp := range h.workers {
		wp.out.send(body)
	}
}

// respawn replaces a dead worker and retransmits everything
// outstanding. Stale notifications (the reader and the reaper both
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
	wp.out.close()
	wp.conn.Close()
	wp.cmd.Process.Kill()
	h.workers[evt.shard] = nil
	if err := h.spawn(evt.shard); err != nil {
		panic(fmt.Sprintf("wirenet: respawn shard %d: %v", evt.shard, err))
	}
	if err := h.waitForWorker(evt.shard); err != nil {
		panic(fmt.Sprintf("wirenet: respawn shard %d: %v", evt.shard, err))
	}
	h.broadcastPeers()
	h.retransmit()
}

// retransmit re-injects every outstanding frame, per edge in sequence
// order. Frames that survived in flight arrive twice and are shed by
// the hub's per-edge sequence check; frames lost with the dead worker
// arrive once. Either way every edge stays exactly-once FIFO.
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
		wp := h.workers[shardOf(e.from, h.k)]
		for _, s := range seqs {
			wp.out.send(out[s].frame)
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
			h.dropped += n
			h.inflight -= n
		}
		delete(h.outstanding, e)
		delete(h.hold, e)
	}
	kept := h.timers[:0]
	for _, t := range h.timers {
		if t.owner != id {
			kept = append(kept, t)
		}
	}
	h.timers = kept
}

// HasNode reports whether a processor is registered.
func (h *Hub) HasNode(id NodeID) bool {
	_, ok := h.handlers[id]
	return ok
}

// CancelTimers discards every armed timer owned by one processor.
func (h *Hub) CancelTimers(id NodeID) int {
	cancelled := 0
	kept := h.timers[:0]
	for _, t := range h.timers {
		if t.owner == id {
			cancelled++
			continue
		}
		kept = append(kept, t)
	}
	h.timers = kept
	return cancelled
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
	for _, t := range h.timers {
		if _, ok := h.handlers[t.owner]; !ok {
			return fmt.Errorf("wirenet: armed timer owned by unregistered processor %d", t.owner)
		}
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
		h.dropped++
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
			out = make(map[uint64]outFrame)
		}
		h.outstanding[e] = out
	}
	out[m.EdgeSeq] = outFrame{frame: frame, words: words}
	h.inflight++
	if wp := h.workers[shardOf(from, h.k)]; wp != nil {
		wp.out.send(frame)
	}
	// A nil worker slot (mid-respawn) is fine: the frame is
	// outstanding and goes out with the retransmit.
}

// SendTimer arms a local wake-up after delay ticks of the owner's
// logical clock. Timers are hub-local and never cross the wire.
func (h *Hub) SendTimer(owner NodeID, payload any, delay int) {
	if delay < 1 {
		panic(fmt.Sprintf("wirenet: timer with delay %d", delay))
	}
	h.seq++
	m := transport.Message{From: owner, To: owner, Payload: payload, Timer: true, Seq: h.seq}
	h.timers = append(h.timers, timerRec{owner: owner, due: h.clocks[owner] + int64(delay), seq: m.Seq, msg: m})
}

// EdgeBudget is always 0: wirenet has no bandwidth model.
func (h *Hub) EdgeBudget(from, to NodeID) int { return 0 }

// Bandwidth returns 0: unlimited, always.
func (h *Hub) Bandwidth() int { return 0 }

// SetBandwidth accepts only 0; congestion modeling is simnet-only.
func (h *Hub) SetBandwidth(words int) {
	if words != 0 {
		panic("wirenet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// SetEdgeBandwidth accepts only non-positive words (cap removal).
func (h *Hub) SetEdgeBandwidth(from, to NodeID, words int) {
	if words > 0 {
		panic("wirenet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// SetNodeBandwidth accepts only non-positive words (cap removal).
func (h *Hub) SetNodeBandwidth(id NodeID, words int) {
	if words > 0 {
		panic("wirenet: no bandwidth model (congestion experiments are simnet-only)")
	}
}

// Pending reports undelivered messages plus armed timers.
func (h *Hub) Pending() int { return h.inflight + len(h.timers) }

// PendingWords sums the sizes of all undelivered network messages.
func (h *Hub) PendingWords() int {
	words := 0
	for _, out := range h.outstanding {
		for _, f := range out {
			words += f.words
		}
	}
	return words
}

// Dropped returns the number of network messages addressed to dead
// processors.
func (h *Hub) Dropped() int { return h.dropped }

// Stats returns a copy of the traffic statistics.
func (h *Hub) Stats() transport.Stats { return h.stats }

// ResetStats zeroes the traffic statistics.
func (h *Hub) ResetStats() {
	h.stats = transport.Stats{}
	h.sentBy = make(map[NodeID]int)
}

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
	if delivered > 0 {
		h.stats.Rounds++
		if h.sawElection {
			h.stats.ElectionRounds++
		}
		if h.sawSync {
			h.stats.SyncRounds++
		}
		if h.sawAudit {
			h.stats.AuditRounds++
		}
	}
	h.sawElection, h.sawSync, h.sawAudit = false, false, false
	q := transport.Quiet{Delivered: delivered, Pending: h.Pending()}
	h.publish(q)
	return q
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
// RemoveNode, PendingWords and Validate scan only edges with traffic
// in flight; a late duplicate finds no entry and accept sheds it.
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
	h.book(msg)
	hd(h, msg)
}

// fireEarliest delivers the earliest-due timer batch (all timers tied
// at the minimum due), ordered by (owner, seq), stamping each owner's
// clock to at least its due tick — channet's exact semantics, except
// the handler runs inline (timers never enter the fabric).
func (h *Hub) fireEarliest() int {
	if len(h.timers) == 0 {
		return 0
	}
	min := h.timers[0].due
	for _, t := range h.timers[1:] {
		if t.due < min {
			min = t.due
		}
	}
	var batch []timerRec
	kept := h.timers[:0]
	for _, t := range h.timers {
		if t.due == min {
			batch = append(batch, t)
		} else {
			kept = append(kept, t)
		}
	}
	h.timers = kept
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].owner != batch[j].owner {
			return batch[i].owner < batch[j].owner
		}
		return batch[i].seq < batch[j].seq
	})
	fired := 0
	for _, t := range batch {
		hd, ok := h.handlers[t.owner]
		if !ok {
			continue // unreachable: purged at RemoveNode
		}
		at := t.due - 1
		if c := h.clocks[t.owner]; at > c {
			h.clocks[t.owner] = at
		}
		h.clocks[t.owner]++
		hd(h, t.msg)
		fired++
	}
	return fired
}

// book folds one delivered network message into the stats.
func (h *Hub) book(m transport.Message) {
	if m.Timer {
		return
	}
	h.stats.Messages++
	h.stats.TotalWords += m.Words
	if m.Words > h.stats.MaxWords {
		h.stats.MaxWords = m.Words
	}
	h.sentBy[m.From]++
	if h.sentBy[m.From] > h.stats.MaxSentByNode {
		h.stats.MaxSentByNode = h.sentBy[m.From]
	}
	switch m.Class {
	case transport.ClassElection:
		h.stats.ElectionMessages++
		h.sawElection = true
	case transport.ClassSync:
		h.stats.SyncMessages++
		h.sawSync = true
	case transport.ClassAudit:
		h.stats.AuditMessages++
		h.sawAudit = true
	}
}

// --- transport.Driver control plane ---

// Drive ties the hub's lifetime to ctx: cancellation closes it. The
// fabric itself is already running (New spawns the fleet), so this
// never blocks.
func (h *Hub) Drive(ctx context.Context) error {
	if ctx != nil && ctx.Done() != nil {
		go func() {
			<-ctx.Done()
			h.Close()
		}()
	}
	return nil
}

// Close shuts the fleet down: a courtesy shutdown frame, then SIGKILL.
// Safe to call multiple times; concurrent with a running Pulse only
// during teardown.
func (h *Hub) Close() error {
	if h.closed.Swap(true) {
		return h.closeErr
	}
	for _, wp := range h.workers {
		if wp == nil {
			continue
		}
		wp.out.send([]byte{fkShutdown})
		wp.out.close()
	}
	for _, ps := range h.spawns {
		ps.cmd.Process.Kill()
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

// At runs fn at a safe point. Handlers only run inside Pulse on the
// caller's own goroutine, so between pulses every point is safe and fn
// runs inline.
func (h *Hub) At(fn func()) { fn() }

// Quiesced reports each Pulse's quiescent point, latest-wins.
func (h *Hub) Quiesced() <-chan transport.Quiet { return h.quiesced }

func (h *Hub) publish(q transport.Quiet) {
	for {
		select {
		case h.quiesced <- q:
			return
		default:
			select {
			case <-h.quiesced:
			default:
			}
		}
	}
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
