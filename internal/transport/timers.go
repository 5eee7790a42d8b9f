package transport

// Timers is the armed-timer store every backend keeps its SendTimer
// wake-ups in: a binary min-heap ordered by (due, owner, seq). That key
// is total (seq is unique per backend), so the order timers leave the
// store is fixed by what was armed, never by the heap's layout.
//
// Removal by owner (RemoveOwner, called when a processor dies) is lazy
// but exact: each owner has a slot holding its armed count and a
// generation, every entry records its owner's slot and generation, and
// removing the owner bumps the generation, so the owner's entries turn
// stale without being searched for. Len drops by the owner's count at
// once; stale entries are skipped when they reach the top and purged in
// bulk once they make up half the heap, which keeps storage O(live).
// Popping a live entry decrements its owner's count through the slot,
// so only Arm and RemoveOwner consult the owner index.
//
// The zero value is an empty store. It is not safe for concurrent use.
type Timers struct {
	h      []timerEntry
	owners map[NodeID]int32 // owner -> index into slots
	slots  []ownerSlot
	free   []int32 // slots released by RemoveOwner, for reuse
	live   int     // entries armed since their owner was last removed
	stale  int     // entries of removed owners still in h
}

// timerEntry is one armed timer. A timer message is fully determined
// by its owner (From and To), seq and payload, so that is all it keeps.
type timerEntry struct {
	due     int64
	owner   NodeID
	seq     int
	payload any
	slot    int32
	gen     uint32
}

// ownerSlot is one owner's bookkeeping: how many live entries it has
// and the generation they carry, bumped when the owner is removed.
type ownerSlot struct {
	gen   uint32
	armed int32
}

func (e *timerEntry) message() Message {
	return Message{From: e.owner, To: e.owner, Payload: e.payload, Timer: true, Seq: e.seq}
}

func (e *timerEntry) before(o *timerEntry) bool {
	if e.due != o.due {
		return e.due < o.due
	}
	if e.owner != o.owner {
		return e.owner < o.owner
	}
	return e.seq < o.seq
}

// Len returns the number of armed timers, not counting those of
// removed owners.
func (t *Timers) Len() int { return t.live }

// Arm stores a timer for owner that falls due at due; seq is the
// backend's send sequence number, which breaks ties between one
// owner's timers.
func (t *Timers) Arm(owner NodeID, due int64, seq int, payload any) {
	s, ok := t.owners[owner]
	if !ok {
		s = t.newSlot()
		if t.owners == nil {
			t.owners = make(map[NodeID]int32)
		}
		t.owners[owner] = s
	}
	t.slots[s].armed++
	t.live++
	t.h = append(t.h, timerEntry{
		due: due, owner: owner, seq: seq, payload: payload, slot: s, gen: t.slots[s].gen,
	})
	t.up(len(t.h) - 1)
}

func (t *Timers) newSlot() int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return s
	}
	t.slots = append(t.slots, ownerSlot{})
	return int32(len(t.slots) - 1)
}

// RemoveOwner discards every timer owner has armed.
func (t *Timers) RemoveOwner(owner NodeID) {
	s, ok := t.owners[owner]
	if !ok {
		return
	}
	delete(t.owners, owner)
	sl := &t.slots[s]
	t.live -= int(sl.armed)
	t.stale += int(sl.armed)
	sl.armed = 0
	sl.gen++
	t.free = append(t.free, s)
	if 2*t.stale > len(t.h) {
		t.compact()
	}
}

// EachOwner calls fn once for every owner with at least one armed
// timer, in no particular order.
func (t *Timers) EachOwner(fn func(owner NodeID)) {
	for owner, s := range t.owners {
		if t.slots[s].armed > 0 {
			fn(owner)
		}
	}
}

// PopDue removes every armed timer with due <= r and appends its
// message to dst in (due, owner, seq) order.
func (t *Timers) PopDue(r int64, dst []Message) []Message {
	for t.dropStale() && t.h[0].due <= r {
		dst = append(dst, t.pop())
	}
	return dst
}

// PopEarliest removes the armed timers tied at the earliest due and
// appends their messages to dst in (owner, seq) order. It returns dst
// and that due; with nothing armed it returns dst unchanged and 0.
func (t *Timers) PopEarliest(dst []Message) ([]Message, int64) {
	if !t.dropStale() {
		return dst, 0
	}
	due := t.h[0].due
	for t.dropStale() && t.h[0].due == due {
		dst = append(dst, t.pop())
	}
	return dst, due
}

// dropStale discards stale entries from the top of the heap and
// reports whether a live one remains there.
func (t *Timers) dropStale() bool {
	for len(t.h) > 0 {
		if e := &t.h[0]; t.slots[e.slot].gen == e.gen {
			return true
		}
		t.removeTop()
		t.stale--
	}
	return false
}

// pop removes the live top entry and returns its message.
func (t *Timers) pop() Message {
	m := t.h[0].message()
	t.slots[t.h[0].slot].armed--
	t.live--
	t.removeTop()
	return m
}

func (t *Timers) removeTop() {
	last := len(t.h) - 1
	t.h[0] = t.h[last]
	t.h[last] = timerEntry{}
	t.h = t.h[:last]
	if last > 0 {
		t.down(0)
	}
}

// compact drops every stale entry and restores the heap order.
func (t *Timers) compact() {
	kept := t.h[:0]
	for _, e := range t.h {
		if t.slots[e.slot].gen == e.gen {
			kept = append(kept, e)
		}
	}
	clear(t.h[len(kept):])
	t.h = kept
	t.stale = 0
	for i := len(t.h)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
}

func (t *Timers) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.h[i].before(&t.h[p]) {
			return
		}
		t.h[i], t.h[p] = t.h[p], t.h[i]
		i = p
	}
}

func (t *Timers) down(i int) {
	n := len(t.h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.h[r].before(&t.h[c]) {
			c = r
		}
		if !t.h[c].before(&t.h[i]) {
			return
		}
		t.h[i], t.h[c] = t.h[c], t.h[i]
		i = c
	}
}
