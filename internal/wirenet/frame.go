package wirenet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/transport"
)

// Wire format. Every connection is one lane between the hub and a
// worker, and carries a stream of length-prefixed frames:
//
//	uvarint bodyLen | body
//
// and every body starts with a one-byte frame kind. Route and deliver
// frames share one body layout, so the worker's relay turns one into
// the other by rewriting the kind byte, not by re-encoding.
const (
	// fkHello is a worker's first frame on each lane: its shard index,
	// the lane's receiver shard, its process ID and the shared secret.
	fkHello = byte(iota + 1)
	// fkRoute carries a message hub → shard(From) on the lane toward
	// shard(To): "send this through the fabric".
	fkRoute
	// fkDeliver carries it back on the same lane: "this arrived".
	fkDeliver
	// fkShutdown asks a worker to exit cleanly.
	fkShutdown
)

// maxFrame bounds one frame body. Protocol payloads are O(1) words, so
// real frames sit far below this.
const maxFrame = 1 << 20

// wmsg is a protocol message in transit: the transport.Message scalars
// plus the fields the fabric itself needs — the per-directed-edge
// sequence number (FIFO and exactly-once are enforced hub-side against
// it) and the sender's logical-clock stamp.
type wmsg struct {
	From, To transport.NodeID
	EdgeSeq  uint64 // position on the directed edge From→To, from 1
	GSeq     int    // global send ticket (transport.Message.Seq)
	At       int64  // sender's Lamport stamp at send time
	Class    transport.Class
	Words    int
	Payload  []byte // codec-encoded payload, never read by workers
}

// appendWmsg appends the shared message body (without the kind byte).
func appendWmsg(buf []byte, m wmsg) []byte {
	buf = binary.AppendVarint(buf, int64(m.From))
	buf = binary.AppendVarint(buf, int64(m.To))
	buf = binary.AppendUvarint(buf, m.EdgeSeq)
	buf = binary.AppendUvarint(buf, uint64(m.GSeq))
	buf = binary.AppendVarint(buf, m.At)
	buf = append(buf, byte(m.Class))
	buf = binary.AppendUvarint(buf, uint64(m.Words))
	buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
	buf = append(buf, m.Payload...)
	return buf
}

// parseWmsg decodes the shared message body (after the kind byte). The
// payload aliases data.
func parseWmsg(data []byte) (wmsg, error) {
	var m wmsg
	d := decoder{data: data}
	m.From = transport.NodeID(d.varint())
	m.To = transport.NodeID(d.varint())
	m.EdgeSeq = d.uvarint()
	m.GSeq = int(d.uvarint())
	m.At = d.varint()
	m.Class = transport.Class(d.byte())
	m.Words = int(d.uvarint())
	n := int(d.uvarint())
	if d.err == nil && (n < 0 || n > len(d.data)-d.off) {
		d.err = fmt.Errorf("wirenet: payload length %d exceeds frame", n)
	}
	if d.err != nil {
		return wmsg{}, d.err
	}
	m.Payload = d.data[d.off : d.off+n : d.off+n]
	return m, nil
}

// decoder is a cursor over one frame body with sticky errors.
type decoder struct {
	data []byte
	off  int
	err  error
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("wirenet: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("wirenet: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readFrame reads one length-prefixed frame body into buf's storage,
// or into a new slice when the body does not fit.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("wirenet: frame length %d out of range", n)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// writeFrame writes one frame body with its length prefix. The prefix
// is built in w's own buffer, so a write allocates nothing.
func writeFrame(w *bufio.Writer, body []byte) error {
	if w.Available() < binary.MaxVarintLen64 {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(binary.AppendUvarint(w.AvailableBuffer(), uint64(len(body)))); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// sendq is the hub's write pump for one lane: an unbounded queue
// drained by one goroutine, so the driver never blocks on a full TCP
// buffer. Frames enqueued after close, or left when the connection
// errors, are silently discarded — reliability is end-to-end (the hub
// retransmits outstanding frames), not per-lane.
type sendq struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [][]byte
	closed bool
	conn   net.Conn
}

func newSendq(conn net.Conn) *sendq {
	s := &sendq{conn: conn}
	s.cond = sync.NewCond(&s.mu)
	go s.pump()
	return s
}

// send enqueues one frame body (the length prefix is added on write).
func (s *sendq) send(body []byte) {
	s.mu.Lock()
	if !s.closed {
		s.q = append(s.q, body)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// close drains what is already queued, then closes the connection.
func (s *sendq) close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.cond.Signal()
	}
	s.mu.Unlock()
}

func (s *sendq) pump() {
	w := bufio.NewWriter(s.conn)
	for {
		s.mu.Lock()
		for len(s.q) == 0 && !s.closed {
			s.cond.Wait()
		}
		batch := s.q
		s.q = nil
		closed := s.closed
		s.mu.Unlock()
		for _, body := range batch {
			if err := writeFrame(w, body); err != nil {
				s.stop()
				return
			}
		}
		if err := w.Flush(); err != nil {
			s.stop()
			return
		}
		if closed {
			s.conn.Close()
			return
		}
	}
}

// stop discards everything still queued and closes the connection now.
func (s *sendq) stop() {
	s.mu.Lock()
	s.closed = true
	s.q = nil
	s.cond.Signal()
	s.mu.Unlock()
	s.conn.Close()
}
