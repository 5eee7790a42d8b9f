package transport

import (
	"cmp"
	"slices"
)

// Timers is the armed-timer store every backend keeps its SendTimer
// wake-ups in. Timers that share a due share a bin; a binary min-heap
// orders the bins by due, and an index finds a due's bin when a timer
// is armed. Timers leave the store in (due, owner, seq) order: bins in
// due order, and within a bin by (owner, seq). That key is total (seq
// is unique per backend), so the order timers leave the store is fixed
// by what was armed, never by the store's layout.
//
// Cost. Arm is an owner-index lookup, a due-index lookup and an append;
// only the first timer of a new due pushes a bin onto the heap. Popping
// a due takes its bin off the heap once and copies its k entries out,
// sorting them first only if they were not armed in (owner, seq) order.
// A wave of k timers tied at one due — the audit layer's standing
// ticks, aligned to the period grid — so costs O(k) plus one heap
// operation over the distinct dues, instead of k pops from a heap over
// every timer. An emptied bin keeps its array for the next new due,
// unless the array is more than about twice what the bin held (see
// retire). The due index is never deleted from: a popped due's entry is
// checked against its bin on use, and the index is cleared and rebuilt
// from the heap once it holds twice as many dues as the heap, which
// keeps the map's storage. A store at its steady size so allocates
// nothing.
//
// Removal by owner (RemoveOwner, called when a processor dies) is lazy
// but exact: each owner has a slot holding its armed count and a
// generation, every entry records its owner's slot and generation, and
// removing the owner bumps the generation, so the owner's entries turn
// stale without being searched for. Len drops by the owner's count at
// once; stale entries are skipped when their bin is popped and purged
// in bulk once they make up half the stored entries, which keeps the
// stored entries O(live). Popping a live entry decrements its owner's
// count through the slot, so only Arm and RemoveOwner consult the owner
// index.
//
// The zero value is an empty store. It is not safe for concurrent use.
type Timers struct {
	bins   []timerBin       // every bin ever used; heap and spare index it
	heap   []int32          // bins holding entries, a min-heap by due
	byDue  map[int64]int32  // due -> its bin; popped dues linger, see binFor
	spare  []int32          // emptied bins, reused last-in first-out
	owners map[NodeID]int32 // owner -> index into slots
	slots  []ownerSlot
	free   []int32 // slots released by RemoveOwner, for reuse
	live   int     // entries armed since their owner was last removed
	stale  int     // entries of removed owners still stored
}

// timerBin holds the entries armed for one due, in arming order.
type timerBin struct {
	due     int64
	at      []timerEntry
	ordered bool // at is in (owner, seq) order
}

// timerEntry is one armed timer. A timer message is fully determined
// by its owner (From and To), seq and payload, so that is all it keeps
// besides its owner's slot and generation; the due is its bin's.
type timerEntry struct {
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

func cmpEntry(a, b timerEntry) int {
	if c := cmp.Compare(a.owner, b.owner); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
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
	e := timerEntry{owner: owner, seq: seq, payload: payload, slot: s, gen: t.slots[s].gen}
	i := t.binFor(due) // may grow t.bins: index it only afterwards
	b := &t.bins[i]
	if k := len(b.at); k > 0 && cmpEntry(b.at[k-1], e) > 0 {
		b.ordered = false
	}
	b.at = append(b.at, e)
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

// binFor returns the bin of due, taking a spare bin (or a new one) and
// pushing it onto the heap if due has none.
func (t *Timers) binFor(due int64) int32 {
	// A bin is on the heap exactly while it holds entries, so a lingering
	// entry of a popped due fails this check even if its bin was reused.
	if i, ok := t.byDue[due]; ok && t.bins[i].due == due && len(t.bins[i].at) > 0 {
		return i
	}
	var i int32
	if n := len(t.spare); n > 0 {
		i = t.spare[n-1]
		t.spare = t.spare[:n-1]
	} else {
		t.bins = append(t.bins, timerBin{})
		i = int32(len(t.bins) - 1)
	}
	t.bins[i].due, t.bins[i].ordered = due, true
	if t.byDue == nil {
		t.byDue = make(map[int64]int32)
	} else if len(t.byDue) >= 2*len(t.heap)+16 {
		clear(t.byDue)
		for _, j := range t.heap {
			t.byDue[t.bins[j].due] = j
		}
	}
	t.byDue[due] = i
	t.heap = append(t.heap, i)
	t.up(len(t.heap) - 1)
	return i
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
	if t.stale > t.live {
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
	for len(t.heap) > 0 && t.bins[t.heap[0]].due <= r {
		dst = t.popTop(dst)
	}
	return dst
}

// PopEarliest removes the armed timers tied at the earliest due and
// appends their messages to dst in (owner, seq) order. It returns dst
// and that due; with nothing armed it returns dst unchanged and 0.
// Bins holding only removed owners' timers are discarded on the way.
func (t *Timers) PopEarliest(dst []Message) ([]Message, int64) {
	for len(t.heap) > 0 {
		due, n := t.bins[t.heap[0]].due, len(dst)
		if dst = t.popTop(dst); len(dst) > n {
			return dst, due
		}
	}
	return dst, 0
}

// popTop takes the earliest bin off the heap, appends its live entries'
// messages to dst in (owner, seq) order, and retires the emptied bin.
func (t *Timers) popTop(dst []Message) []Message {
	i := t.heap[0]
	last := len(t.heap) - 1
	t.heap[0] = t.heap[last]
	t.heap = t.heap[:last]
	if last > 0 {
		t.down(0)
	}
	b := &t.bins[i]
	if !b.ordered {
		slices.SortFunc(b.at, cmpEntry)
	}
	for k := range b.at {
		e := &b.at[k]
		sl := &t.slots[e.slot]
		if sl.gen != e.gen {
			t.stale--
			continue
		}
		sl.armed--
		t.live--
		dst = append(dst, Message{From: e.owner, To: e.owner, Payload: e.payload, Timer: true, Seq: e.seq})
	}
	t.retire(i, len(b.at))
	return dst
}

// retire makes bin i, whose held entries are all gone, a spare. It
// keeps the bin's array for the next new due unless the array is more
// than about twice what the bin held: a due that took a wave's spare
// for a few timers hands the wave-sized array to the garbage collector
// when it pops, instead of every bin keeping the largest array it ever
// had.
func (t *Timers) retire(i int32, held int) {
	b := &t.bins[i]
	if cap(b.at) > 2*held+16 {
		b.at = nil
	} else {
		clear(b.at[:held])
		b.at = b.at[:0]
	}
	t.spare = append(t.spare, i)
}

// compact drops every stale entry, retires the bins it empties, and
// restores the heap order.
func (t *Timers) compact() {
	kept := t.heap[:0]
	for _, i := range t.heap {
		b := &t.bins[i]
		held := len(b.at)
		at := b.at[:0]
		for _, e := range b.at {
			if t.slots[e.slot].gen == e.gen {
				at = append(at, e)
			}
		}
		clear(b.at[len(at):])
		b.at = at
		if len(at) > 0 {
			kept = append(kept, i)
			continue
		}
		t.retire(i, held)
	}
	t.heap = kept
	t.stale = 0
	for i := len(t.heap)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
}

func (t *Timers) less(i, j int) bool {
	return t.bins[t.heap[i]].due < t.bins[t.heap[j]].due
}

func (t *Timers) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(i, p) {
			return
		}
		t.heap[i], t.heap[p] = t.heap[p], t.heap[i]
		i = p
	}
}

func (t *Timers) down(i int) {
	n := len(t.heap)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && t.less(r, c) {
			c = r
		}
		if !t.less(c, i) {
			return
		}
		t.heap[i], t.heap[c] = t.heap[c], t.heap[i]
		i = c
	}
}
