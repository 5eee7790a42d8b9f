package transport

// Traffic books delivered traffic into Stats. Every backend holds one,
// so the counting rules below live in one place:
//
//   - Deliver books one delivered network message: Messages,
//     TotalWords, MaxWords, the per-sender count behind MaxSentByNode
//     and its class's message counter. Timers are local wake-ups, not
//     traffic, and are not booked.
//   - EndPulse closes a pulse. A pulse that delivered anything, a fired
//     timer included, is one round, and it counts once toward the
//     rounds of each class it carried, however many messages of that
//     class it delivered.
//   - Defer books the words one edge carries over a round boundary
//     under a bandwidth cap (the congestion counters; simnet only).
//   - Drop counts messages addressed to dead processors. The count is
//     cumulative: ResetStats leaves it alone.
//
// The zero value is ready to use. Traffic is not synchronized: a
// backend that delivers from several goroutines serializes its calls.
type Traffic struct {
	stats     Stats
	sentBy    map[NodeID]int
	carried   uint8 // bit c: this pulse delivered a message of Class c
	congested bool  // this pulse deferred a message
	dropped   int
}

// Deliver books one delivered message; timers are skipped.
func (t *Traffic) Deliver(m Message) {
	if m.Timer {
		return
	}
	t.stats.Messages++
	t.stats.TotalWords += m.Words
	if m.Words > t.stats.MaxWords {
		t.stats.MaxWords = m.Words
	}
	if t.sentBy == nil {
		t.sentBy = make(map[NodeID]int)
	}
	sent := t.sentBy[m.From] + 1
	t.sentBy[m.From] = sent
	if sent > t.stats.MaxSentByNode {
		t.stats.MaxSentByNode = sent
	}
	switch m.Class {
	case ClassElection:
		t.stats.ElectionMessages++
	case ClassSync:
		t.stats.SyncMessages++
	case ClassAudit:
		t.stats.AuditMessages++
	}
	t.carried |= 1 << m.Class
}

// Defer books words left queued on one edge at a round boundary.
func (t *Traffic) Defer(words int) {
	t.congested = true
	t.stats.QueuedWords += words
	if words > t.stats.MaxEdgeBacklog {
		t.stats.MaxEdgeBacklog = words
	}
}

// EndPulse closes a pulse that performed delivered deliveries, timers
// included.
func (t *Traffic) EndPulse(delivered int) {
	if delivered > 0 {
		t.stats.Rounds++
		if t.carried&(1<<ClassElection) != 0 {
			t.stats.ElectionRounds++
		}
		if t.carried&(1<<ClassSync) != 0 {
			t.stats.SyncRounds++
		}
		if t.carried&(1<<ClassAudit) != 0 {
			t.stats.AuditRounds++
		}
	}
	if t.congested {
		t.stats.CongestionRounds++
	}
	t.carried, t.congested = 0, false
}

// Drop counts n messages addressed to dead processors.
func (t *Traffic) Drop(n int) { t.dropped += n }

// Dropped returns the number of messages dropped so far.
func (t *Traffic) Dropped() int { return t.dropped }

// Stats returns a copy of the statistics booked since the last
// ResetStats.
func (t *Traffic) Stats() Stats { return t.stats }

// ResetStats zeroes the statistics; Dropped keeps counting.
func (t *Traffic) ResetStats() { *t = Traffic{dropped: t.dropped} }
