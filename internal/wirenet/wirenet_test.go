package wirenet

import (
	"bufio"
	"bytes"
	"math/rand"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestMain makes the re-exec contract work for the test binary: when
// the hub under test spawns workers, the children re-enter this very
// binary and must become shards instead of running the tests.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

// Test payload vocabulary (tags far above the protocol's range).
type testPing struct {
	N    int64
	Hops uint32
}

type testNested struct {
	A    int
	B    uint8
	Pair struct {
		X, Y int64
	}
}

// testWide and testNarrow share a field shape at different widths.
type testWide struct {
	S int64
	U uint64
}

type testNarrow struct {
	S int8
	U uint8
}

func init() {
	RegisterPayload(200, testPing{})
	RegisterPayload(201, testNested{})
	RegisterPayload(202, testWide{})
	RegisterPayload(203, testNarrow{})
}

func TestCodecRoundTrip(t *testing.T) {
	in := testNested{A: -42, B: 7}
	in.Pair.X = 1 << 40
	in.Pair.Y = -3
	buf, err := encodePayload(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodePayload(buf)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := out.(testNested)
	if !ok {
		t.Fatalf("decoded %T, want testNested", out)
	}
	if got != in {
		t.Fatalf("round trip %+v != %+v", got, in)
	}
	if _, err := encodePayload(nil, struct{ Z int }{1}); err == nil {
		t.Fatal("encoding an unregistered type did not error")
	}
}

// TestCodecRejectsOverflow decodes values too wide for their fields:
// each must fail, not truncate (300 in a uint8 once decoded as 44).
// testWide and testNarrow have the same field shape, so a testWide
// encoding relabelled with testNarrow's tag decodes field for field.
func TestCodecRejectsOverflow(t *testing.T) {
	asNarrow := func(in testWide) (any, error) {
		buf, err := encodePayload(nil, in)
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = 203
		return decodePayload(buf)
	}
	for _, in := range []testWide{
		{U: 300}, {U: 1 << 8}, {U: 1<<64 - 1},
		{S: 128}, {S: -129}, {S: 1 << 40}, {S: -1 << 63},
	} {
		if out, err := asNarrow(in); err == nil {
			t.Errorf("%+v decoded as %+v, want an overflow error", in, out)
		}
	}
	for _, in := range []testWide{{U: 255, S: 127}, {U: 0, S: -128}} {
		out, err := asNarrow(in)
		if err != nil {
			t.Fatalf("in-range %+v: %v", in, err)
		}
		if got := out.(testNarrow); int64(got.S) != in.S || uint64(got.U) != in.U {
			t.Fatalf("in-range %+v decoded as %+v", in, got)
		}
	}
}

func newTestHub(t *testing.T, shards int) *Hub {
	t.Helper()
	h, err := New(Config{Shards: shards, DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// Close is idempotent: the second call finds the hub closed.
		for i := 0; i < 2; i++ {
			if err := h.Close(); err != nil {
				t.Errorf("Close #%d: %v", i+1, err)
			}
		}
	})
	return h
}

// TestHubPingPong runs a two-node cross-shard exchange: every message
// crosses hub → worker shard(From) → hub on the lane toward
// shard(To), and the pulse must drain the full cascade.
func TestHubPingPong(t *testing.T) {
	h := newTestHub(t, 2)
	var log []int64
	h.AddNode(1, func(e transport.Endpoint, m transport.Message) {
		p := m.Payload.(testPing)
		log = append(log, p.N)
	})
	h.AddNode(2, func(e transport.Endpoint, m transport.Message) {
		p := m.Payload.(testPing)
		if p.N > 0 {
			e.Send(2, 1, testPing{N: p.N}, 1)
		}
	})
	const k = 100
	for i := 1; i <= k; i++ {
		h.Send(1, 2, testPing{N: int64(i)}, 1)
	}
	q := h.Pulse()
	if q.Delivered != 2*k {
		t.Fatalf("Pulse delivered %d, want %d", q.Delivered, 2*k)
	}
	if q.Pending != 0 || h.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", h.Pending())
	}
	if len(log) != k {
		t.Fatalf("node 1 saw %d replies, want %d", len(log), k)
	}
	for i, n := range log {
		if n != int64(i+1) {
			t.Fatalf("FIFO violation: reply %d has N=%d", i, n)
		}
	}
	if s := h.Stats(); s.Messages != 2*k {
		t.Fatalf("Stats.Messages = %d, want %d", s.Messages, 2*k)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHubDrainedEdgesLeaveOutstanding pins the outstanding set's
// bound: once every frame on an edge is delivered the edge has no
// entry (RemoveNode and Validate scan the set), and a
// late duplicate of a delivered frame is still shed, not re-delivered.
func TestHubDrainedEdgesLeaveOutstanding(t *testing.T) {
	h := newTestHub(t, 2)
	got := 0
	h.AddNode(1, func(transport.Endpoint, transport.Message) {})
	h.AddNode(2, func(transport.Endpoint, transport.Message) { got++ })
	for i := 1; i <= 10; i++ {
		h.Send(1, 2, testPing{N: int64(i)}, 1)
	}
	if len(h.outstanding) != 1 {
		t.Fatalf("outstanding has %d edges before the pulse, want 1", len(h.outstanding))
	}
	if d := h.Pulse().Delivered; d != 10 || got != 10 {
		t.Fatalf("Pulse delivered %d (handler saw %d), want 10", d, got)
	}
	if len(h.outstanding) != 0 || len(h.hold) != 0 {
		t.Fatalf("after the drain: %d outstanding edges, %d hold entries, want 0", len(h.outstanding), len(h.hold))
	}
	pb, err := encodePayload(nil, testPing{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	dup := wmsg{From: 1, To: 2, EdgeSeq: 1, Class: transport.ClassData, Words: 1, Payload: pb}
	if n := h.accept(dup); n != 0 || got != 10 {
		t.Fatalf("late duplicate delivered (accept=%d, handler saw %d)", n, got)
	}
	// The edge keeps its sequence: the next send is number 11 and
	// delivers normally through a recycled entry.
	h.Send(1, 2, testPing{N: 11}, 1)
	if d := h.Pulse().Delivered; d != 1 || got != 11 {
		t.Fatalf("post-drain send delivered %d (handler saw %d), want 1", d, got)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(h.outstanding) != 0 {
		t.Fatalf("%d outstanding edges after the second drain, want 0", len(h.outstanding))
	}
}

// TestHubTimers checks channet's timer contract: timers fire only when
// message-idle, earliest batch first, and the owner's clock lands at
// least on the due tick.
func TestHubTimers(t *testing.T) {
	h := newTestHub(t, 2)
	var fired []string
	h.AddNode(1, func(e transport.Endpoint, m transport.Message) {
		fired = append(fired, m.Payload.(string))
	})
	h.SendTimer(1, "late", 5)
	h.SendTimer(1, "early", 2)
	if d := h.Pulse().Delivered; d != 1 {
		t.Fatalf("first pulse delivered %d, want 1 (earliest timer)", d)
	}
	if d := h.Pulse().Delivered; d != 1 {
		t.Fatalf("second pulse delivered %d, want 1 (second timer)", d)
	}
	if len(fired) != 2 || fired[0] != "early" || fired[1] != "late" {
		t.Fatalf("timer order %v, want [early late]", fired)
	}
	if h.Pending() != 0 {
		t.Fatalf("Pending = %d after both timers", h.Pending())
	}
}

// TestHubTimerOrder mirrors transport's TestTimerFiringOrder: tied and
// distinct dues armed in scrambled order over three processors, one
// removed between pulses, and the survivors firing one due per pulse
// in (due, owner, seq) order — the hub runs timer handlers inline, so
// the order is exact, not only per owner.
func TestHubTimerOrder(t *testing.T) {
	h := newTestHub(t, 2)
	var fired []string
	for _, id := range []NodeID{1, 2, 3} {
		h.AddNode(id, func(_ transport.Endpoint, m transport.Message) {
			fired = append(fired, m.Payload.(string))
		})
	}
	arms := []struct {
		owner NodeID
		name  string
		delay int
	}{
		{3, "3a", 2}, {1, "1a", 3}, {2, "2a", 2}, {1, "1b", 2},
		{3, "3b", 1}, {2, "2b", 3}, {1, "1c", 2}, {2, "2c", 1},
	}
	for _, a := range arms {
		h.SendTimer(a.owner, a.name, a.delay)
	}
	want := [][]string{{"2c", "3b"}, {"1b", "1c", "2a"}, {"1a", "2b"}}
	for i, w := range want {
		fired = nil
		if d := h.Pulse().Delivered; d != len(w) || !reflect.DeepEqual(fired, w) {
			t.Fatalf("pulse %d delivered %d, fired %v, want %v", i+1, d, fired, w)
		}
		if i == 0 {
			h.RemoveNode(3) // takes 3a with it
			if p := h.Pending(); p != 5 {
				t.Fatalf("Pending = %d after removing processor 3, want 5", p)
			}
		}
	}
	if p := h.Pending(); p != 0 {
		t.Fatalf("Pending = %d after the last timer", p)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHubTrafficBooking mirrors transport's TestTrafficBooking: one
// message of every class from each of two senders in the first pulse,
// a lone timer in the second, a send to a removed processor dropped
// before either; a timer is a round but not traffic, a class counts
// one round per pulse that carried it, and ResetStats keeps Dropped.
func TestHubTrafficBooking(t *testing.T) {
	h := newTestHub(t, 2)
	noop := func(transport.Endpoint, transport.Message) {}
	for _, id := range []NodeID{1, 2, 3} {
		h.AddNode(id, noop)
	}
	h.RemoveNode(3)
	h.Send(1, 3, testPing{}, 1)
	for _, c := range []transport.Class{
		transport.ClassData, transport.ClassElection, transport.ClassSync, transport.ClassAudit,
	} {
		h.SendClass(1, 2, testPing{}, 1+int(c), c)
		h.SendClass(2, 1, testPing{}, 2+int(c), c)
	}
	h.SendTimer(1, "tick", 2)
	check := func(when string, want transport.Stats) {
		t.Helper()
		if got := h.Stats(); got != want {
			t.Fatalf("%s: Stats = %+v, want %+v", when, got, want)
		}
		if got := h.Dropped(); got != 1 {
			t.Fatalf("%s: Dropped = %d, want 1", when, got)
		}
	}
	if d := h.Pulse().Delivered; d != 8 {
		t.Fatalf("first pulse delivered %d, want 8", d)
	}
	want := transport.Stats{
		Messages: 8, Rounds: 1, TotalWords: 24, MaxWords: 5, MaxSentByNode: 4,
		ElectionMessages: 2, SyncMessages: 2, ElectionRounds: 1, SyncRounds: 1,
		AuditMessages: 2, AuditRounds: 1,
	}
	check("after the messages' pulse", want)
	if d := h.Pulse().Delivered; d != 1 {
		t.Fatalf("second pulse delivered %d, want the timer", d)
	}
	want.Rounds = 2
	check("after the timer's pulse", want)
	if d := h.Pulse().Delivered; d != 0 {
		t.Fatalf("empty pulse delivered %d", d)
	}
	check("after an empty pulse", want)
	h.ResetStats()
	check("after ResetStats", transport.Stats{})
}

// TestHubDroppedCounting mirrors the cross-backend conformance test:
// count at RemoveNode for queued, at send afterwards, timers never.
func TestHubDroppedCounting(t *testing.T) {
	h := newTestHub(t, 2)
	noop := func(transport.Endpoint, transport.Message) {}
	h.AddNode(1, noop)
	h.AddNode(2, noop)
	h.Send(1, 2, testPing{N: 1}, 1)
	h.RemoveNode(2)
	if got := h.Dropped(); got != 1 {
		t.Fatalf("Dropped after RemoveNode = %d, want 1", got)
	}
	h.Send(1, 2, testPing{N: 2}, 1)
	if got := h.Dropped(); got != 2 {
		t.Fatalf("Dropped after send-to-dead = %d, want 2", got)
	}
	h.SendTimer(1, "tick", 3)
	h.RemoveNode(1)
	if got, p := h.Dropped(), h.Pending(); got != 2 || p != 0 {
		t.Fatalf("after timer purge Dropped=%d Pending=%d, want 2, 0", got, p)
	}
	if d := h.Pulse().Delivered; d != 0 {
		t.Fatalf("Pulse delivered %d on empty net", d)
	}
	// The purged message's frame may still arrive from the fabric; it
	// must be shed without double counting.
	if got := h.Dropped(); got != 2 {
		t.Fatalf("Dropped after pulse = %d, want 2", got)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestHubKillWorker SIGKILLs a shard with traffic in flight: the hub
// must respawn it, retransmit, and deliver every message exactly once
// in FIFO order.
func TestHubKillWorker(t *testing.T) {
	h := newTestHub(t, 3)
	var got []int64
	h.AddNode(1, func(transport.Endpoint, transport.Message) {})
	h.AddNode(2, func(e transport.Endpoint, m transport.Message) {
		got = append(got, m.Payload.(testPing).N)
	})
	const k = 400
	for i := 1; i <= k; i++ {
		h.Send(1, 2, testPing{N: int64(i)}, 1)
	}
	// Kill the sender's shard while its queue is (likely) nonempty.
	if err := h.KillWorker(shardOf(1, 3)); err != nil {
		t.Fatal(err)
	}
	if d := h.Pulse().Delivered; d != k {
		t.Fatalf("delivered %d, want %d", d, k)
	}
	for i, n := range got {
		if n != int64(i+1) {
			t.Fatalf("FIFO/exactly-once violation at %d: got N=%d", i, n)
		}
	}
	// Kill a different shard while idle too: the next pulse respawns
	// it and traffic keeps flowing.
	if err := h.KillWorker(shardOf(2, 3)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the death notification land
	h.Send(1, 2, testPing{N: 9999}, 1)
	if d := h.Pulse().Delivered; d != 1 {
		t.Fatalf("post-respawn pulse delivered %d, want 1", d)
	}
	if got[len(got)-1] != 9999 {
		t.Fatalf("lost the post-respawn message")
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerRelay drives one lane's relay over an in-memory pipe. Route
// frames of every size from one byte to maxFrame come back in order as
// deliver frames, byte-identical after the kind byte; frames of any
// other kind are dropped; a shutdown frame, and EOF, end the loop.
func TestWorkerRelay(t *testing.T) {
	sizes := []int{1, 2, 127, 128, 4095, 4096, 4097, 1 << 16, maxFrame - 1, maxFrame}
	rng := rand.New(rand.NewSource(1))
	var routes [][]byte
	for _, n := range sizes {
		body := make([]byte, n)
		rng.Read(body)
		body[0] = fkRoute
		routes = append(routes, body)
	}
	// A frame the relay must drop before each route: every other kind
	// the hub uses, and kinds it never sends.
	others := [][]byte{{fkHello, 1, 2}, {fkDeliver, 7}, {0xee}, {0}}
	run := func(t *testing.T, end func(hub net.Conn)) {
		hub, worker := net.Pipe()
		defer hub.Close()
		done := make(chan struct{})
		go func() {
			relay(worker)
			worker.Close()
			close(done)
		}()
		readAll := make(chan struct{})
		go func() {
			w := bufio.NewWriter(hub)
			for i, body := range routes {
				writeFrame(w, others[i%len(others)])
				writeFrame(w, body)
				w.Flush()
			}
			<-readAll
			end(hub)
		}()
		r := bufio.NewReader(hub)
		for i, sent := range routes {
			got, err := readFrame(r, nil)
			if err != nil {
				t.Fatalf("frame %d (%d bytes): %v", i, len(sent), err)
			}
			if got[0] != fkDeliver || !bytes.Equal(got[1:], sent[1:]) {
				t.Fatalf("frame %d (%d bytes) came back as kind %d with %d bytes",
					i, len(sent), got[0], len(got))
			}
		}
		close(readAll)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("relay did not end")
		}
	}
	t.Run("shutdown", func(t *testing.T) {
		run(t, func(hub net.Conn) {
			w := bufio.NewWriter(hub)
			writeFrame(w, []byte{fkShutdown})
			w.Flush()
		})
	})
	t.Run("eof", func(t *testing.T) {
		run(t, func(hub net.Conn) { hub.Close() })
	})
}

// TestHubKillWorkerAllLanes keeps all 9 lanes of 3 shards busy, with
// senders and receivers on every shard, and SIGKILLs one worker from
// inside the first delivery, so the burst is mid-flight on every lane.
// Every edge must still deliver exactly once, in FIFO order, and the
// respawned shard's lanes must carry the next burst.
func TestHubKillWorkerAllLanes(t *testing.T) {
	const shards, nodes, k = 3, 6, 40
	h := newTestHub(t, shards)
	got := make(map[edgeKey][]int64)
	killed := false
	for v := NodeID(1); v <= nodes; v++ {
		h.AddNode(v, func(e transport.Endpoint, m transport.Message) {
			key := edgeKey{from: m.From, to: m.To}
			got[key] = append(got[key], m.Payload.(testPing).N)
			if !killed {
				killed = true
				if err := h.KillWorker(1); err != nil {
					t.Error(err)
				}
			}
		})
	}
	lanes := make(map[[2]int]bool)
	burst := func(from, to int64) {
		for u := NodeID(1); u <= nodes; u++ {
			for v := NodeID(1); v <= nodes; v++ {
				if u == v {
					continue
				}
				lanes[[2]int{shardOf(u, shards), shardOf(v, shards)}] = true
				for i := from; i <= to; i++ {
					h.Send(u, v, testPing{N: i}, 1)
				}
			}
		}
	}
	check := func(want int64) {
		t.Helper()
		if len(got) != nodes*(nodes-1) {
			t.Fatalf("%d edges delivered, want %d", len(got), nodes*(nodes-1))
		}
		for e, ns := range got {
			if int64(len(ns)) != want {
				t.Fatalf("edge %v delivered %d messages, want %d", e, len(ns), want)
			}
			for i, n := range ns {
				if n != int64(i+1) {
					t.Fatalf("edge %v: message %d has N=%d: not exactly-once FIFO", e, i, n)
				}
			}
		}
		if err := h.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	gen := h.workers[1].gen
	burst(1, k)
	if len(lanes) != shards*shards {
		t.Fatalf("the burst uses %d lanes, want %d", len(lanes), shards*shards)
	}
	if d, want := h.Pulse().Delivered, nodes*(nodes-1)*k; d != want {
		t.Fatalf("Pulse delivered %d, want %d", d, want)
	}
	if !killed {
		t.Fatal("no worker was killed")
	}
	check(k)
	burst(k+1, 2*k)
	if d, want := h.Pulse().Delivered, nodes*(nodes-1)*k; d != want {
		t.Fatalf("second Pulse delivered %d, want %d", d, want)
	}
	check(2 * k)
	if h.workers[1].gen == gen {
		t.Fatal("the killed shard was never respawned")
	}
}
