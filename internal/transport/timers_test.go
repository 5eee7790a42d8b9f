package transport

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// naiveTimers is the reference model for Timers: a flat list that is
// scanned, partitioned and sorted on every pop, the way the backends
// kept their timers before the heap.
type naiveTimers struct {
	list []naiveTimer
}

type naiveTimer struct {
	due int64
	msg Message
}

func (n *naiveTimers) arm(owner NodeID, due int64, seq int, payload any) {
	n.list = append(n.list, naiveTimer{due: due, msg: Message{
		From: owner, To: owner, Payload: payload, Timer: true, Seq: seq,
	}})
}

func (n *naiveTimers) removeOwner(owner NodeID) {
	kept := n.list[:0]
	for _, t := range n.list {
		if t.msg.From != owner {
			kept = append(kept, t)
		}
	}
	n.list = kept
}

// take removes the timers keep selects and returns them sorted by
// (due, owner, seq).
func (n *naiveTimers) take(keep func(due int64) bool) []Message {
	var batch []naiveTimer
	kept := n.list[:0]
	for _, t := range n.list {
		if keep(t.due) {
			batch = append(batch, t)
		} else {
			kept = append(kept, t)
		}
	}
	n.list = kept
	sort.Slice(batch, func(i, j int) bool {
		a, b := batch[i], batch[j]
		if a.due != b.due {
			return a.due < b.due
		}
		if a.msg.From != b.msg.From {
			return a.msg.From < b.msg.From
		}
		return a.msg.Seq < b.msg.Seq
	})
	var out []Message
	for _, t := range batch {
		out = append(out, t.msg)
	}
	return out
}

func (n *naiveTimers) popDue(r int64) []Message {
	return n.take(func(due int64) bool { return due <= r })
}

func (n *naiveTimers) popEarliest() ([]Message, int64) {
	if len(n.list) == 0 {
		return nil, 0
	}
	min := n.list[0].due
	for _, t := range n.list[1:] {
		if t.due < min {
			min = t.due
		}
	}
	return n.take(func(due int64) bool { return due == min }), min
}

func (n *naiveTimers) owners() []NodeID {
	seen := map[NodeID]bool{}
	var out []NodeID
	for _, t := range n.list {
		if !seen[t.msg.From] {
			seen[t.msg.From] = true
			out = append(out, t.msg.From)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkBins verifies the store's internal bookkeeping: the heap is in
// due order and holds one non-empty bin per due, the due index maps
// each of those dues to its bin, no spare bin holds an entry, a bin
// marked ordered is in (owner, seq) order, and the live and stale
// counts match the entries' generations.
func checkBins(st *Timers) error {
	live, stale := 0, 0
	for k, i := range st.heap {
		b := &st.bins[i]
		if k > 0 && !st.less((k-1)/2, k) {
			return fmt.Errorf("due heap order broken at %d (due %d)", k, b.due)
		}
		if len(b.at) == 0 {
			return fmt.Errorf("empty bin for due %d on the heap", b.due)
		}
		if j, ok := st.byDue[b.due]; !ok || j != i {
			return fmt.Errorf("due %d: index says bin %d (%v), heap holds bin %d", b.due, j, ok, i)
		}
		for e := range b.at {
			if b.ordered && e > 0 && cmpEntry(b.at[e-1], b.at[e]) > 0 {
				return fmt.Errorf("bin for due %d marked ordered but entry %d is out of order", b.due, e)
			}
			if st.slots[b.at[e].slot].gen == b.at[e].gen {
				live++
			} else {
				stale++
			}
		}
	}
	for _, i := range st.spare {
		if len(st.bins[i].at) != 0 {
			return fmt.Errorf("spare bin %d holds %d entries", i, len(st.bins[i].at))
		}
	}
	if len(st.heap)+len(st.spare) != len(st.bins) {
		return fmt.Errorf("%d bins on the heap and %d spare, of %d", len(st.heap), len(st.spare), len(st.bins))
	}
	if live != st.live || stale != st.stale {
		return fmt.Errorf("entries: %d live, %d stale; counters say %d, %d", live, stale, st.live, st.stale)
	}
	return nil
}

// stored returns how many entries the store holds, stale ones included.
func stored(st *Timers) int {
	n := 0
	for _, i := range st.heap {
		n += len(st.bins[i].at)
	}
	return n
}

// retained returns the entry capacity of every bin's array, spares
// included, and how many of those arrays have room for at least big
// entries.
func retained(st *Timers, big int) (total, large int) {
	for i := range st.bins {
		c := cap(st.bins[i].at)
		total += c
		if c >= big {
			large++
		}
	}
	return total, large
}

func storeOwners(t *Timers) []NodeID {
	var out []NodeID
	t.EachOwner(func(o NodeID) { out = append(out, o) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestTimersMatchNaiveModel drives the store and the reference model
// through the same random sequences of arms, owner removals, due pops
// and earliest-batch pops: few owners with several timers each, dues
// drawn from a narrow window so ties are common, and removed owners
// re-arming under the same ID. A wave phase follows: many owners armed
// at one due in descending, interleaved or shuffled owner order, so
// popping the bin has to sort it; some of them removed and re-armed
// before the pop; and bins ahead of the wave that hold only removed
// owners' timers, which PopEarliest must pass over. Every pop must
// return the same messages in the same order, and Len must be exact
// after every op, as must the store's own bins and stale-entry count.
func TestTimersMatchNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var st Timers
		var ref naiveTimers
		seq := 0
		now := int64(0)
		arm := func(owner NodeID, due int64) {
			seq++
			payload := fmt.Sprintf("t%d", seq)
			st.Arm(owner, due, seq, payload)
			ref.arm(owner, due, seq, payload)
		}
		remove := func(owner NodeID) {
			st.RemoveOwner(owner)
			ref.removeOwner(owner)
		}
		popDue := func(op int) {
			got := st.PopDue(now, nil)
			want := ref.popDue(now)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d: PopDue(%d) = %v, want %v", seed, op, now, got, want)
			}
		}
		popEarliest := func(op int) {
			got, gotDue := st.PopEarliest(nil)
			want, wantDue := ref.popEarliest()
			if !reflect.DeepEqual(got, want) || gotDue != wantDue {
				t.Fatalf("seed %d op %d: PopEarliest = %v due %d, want %v due %d",
					seed, op, got, gotDue, want, wantDue)
			}
			if gotDue > now {
				now = gotDue
			}
		}
		check := func(op int, what string) {
			if st.Len() != len(ref.list) {
				t.Fatalf("seed %d op %d (%s): Len = %d, want %d", seed, op, what, st.Len(), len(ref.list))
			}
			if got, want := storeOwners(&st), ref.owners(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): owners %v, want %v", seed, op, what, got, want)
			}
			if err := checkBins(&st); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, op, what, err)
			}
		}
		for op := 0; op < 400; op++ {
			var what string
			switch k := rng.Intn(10); {
			case k < 5:
				owner := NodeID(rng.Intn(6))
				due := now + 1 + int64(rng.Intn(4))
				arm(owner, due)
				what = fmt.Sprintf("arm(%d, due %d)", owner, due)
			case k < 7:
				owner := NodeID(rng.Intn(6))
				remove(owner)
				what = fmt.Sprintf("remove(%d)", owner)
			case k < 9:
				now += int64(rng.Intn(3))
				popDue(op)
				what = fmt.Sprintf("popDue(%d)", now)
			default:
				popEarliest(op)
				what = "popEarliest"
			}
			check(op, what)
		}

		// Wave phase. Empty the store first, so the bins armed below
		// are the earliest.
		now += 8
		popDue(400)
		check(400, "popDue before the waves")
		const waveOwners = 40
		for w := 0; w < 6; w++ {
			op := 401 + w
			// Two bins of owners removed before they fall due, then the
			// wave, then a second due that the re-armed owners join.
			for o := NodeID(100); o < 104; o++ {
				arm(o, now+1+int64(o%2))
			}
			order := make([]NodeID, waveOwners)
			for i := range order {
				switch w % 3 {
				case 0: // descending
					order[i] = NodeID(waveOwners - 1 - i)
				case 1: // interleaved: 0, 39, 1, 38, ...
					if i%2 == 0 {
						order[i] = NodeID(i / 2)
					} else {
						order[i] = NodeID(waveOwners - 1 - i/2)
					}
				default:
					order[i] = NodeID(rng.Intn(waveOwners))
				}
			}
			wave := now + 3
			for _, o := range order {
				arm(o, wave)
				if rng.Intn(4) == 0 {
					arm(o, wave+1)
				}
			}
			check(op, "wave armed")
			for o := NodeID(100); o < 104; o++ {
				remove(o)
			}
			for i := 0; i < waveOwners/4; i++ {
				o := NodeID(rng.Intn(waveOwners))
				remove(o)
				if rng.Intn(2) == 0 {
					arm(o, wave+int64(rng.Intn(2)))
				}
			}
			check(op, "wave owners removed and re-armed")
			popEarliest(op) // passes over the two stale-only bins
			if now != wave {
				t.Fatalf("seed %d wave %d: PopEarliest fired due %d, want the wave at %d", seed, w, now, wave)
			}
			check(op, "wave popped")
			now++
			popDue(op)
			check(op, "second due popped")
		}
	}
}

// TestTimersStorageTracksLive checks that removal does not leave the
// store holding entries for the dead: owners whose timers are far in
// the future, so none is popped, are removed wholesale and in a
// remove/re-add/re-arm cycle, and the stored entries, the owner index
// and the slot table must stay within a constant factor of what is
// live. It then checks that popped dues give their bins back: thousands
// of distinct dues armed a few rounds ahead and popped as they fall
// due keep only the handful of bins that are ever armed at once, and a
// second pass over thousands of dues armed together reuses the bins
// the first pass left. Throughout, no bin keeps an array much larger
// than it last held: once the phase that stored thousands of entries at
// one due is popped, its array is not retained, and when a due armed
// with one timer takes a wave's emptied bin while the next wave fills
// a new one, only one wave-sized array survives the pops.
func TestTimersStorageTracksLive(t *testing.T) {
	const n = 4096
	const far = int64(1) << 40
	var st Timers
	seq := 0
	for id := NodeID(0); id < n; id++ {
		seq++
		st.Arm(id, far, seq, nil)
	}
	for round := 0; round < 8*n; round++ {
		id := NodeID(round % n)
		st.RemoveOwner(id)
		seq++
		st.Arm(id, far, seq, nil)
	}
	if st.Len() != n {
		t.Fatalf("Len = %d after remove/re-arm cycles, want %d", st.Len(), n)
	}
	if stored(&st) > 2*n+1 || len(st.owners) != n || len(st.slots) > n+1 {
		t.Fatalf("storage after remove/re-arm cycles: %d entries, %d owners, %d slots for %d live timers",
			stored(&st), len(st.owners), len(st.slots), n)
	}
	for id := NodeID(0); id < n-8; id++ {
		st.RemoveOwner(id)
	}
	if st.Len() != 8 {
		t.Fatalf("Len = %d after removing all but 8 owners", st.Len())
	}
	if stored(&st) > 2*8+1 || len(st.owners) != 8 {
		t.Fatalf("storage after removing all but 8 owners: %d entries, %d owners", stored(&st), len(st.owners))
	}
	if got := st.PopDue(far, nil); len(got) != 8 {
		t.Fatalf("popped %d timers, want the 8 survivors", len(got))
	}

	for r := int64(1); r <= n; r++ {
		seq++
		st.Arm(NodeID(r%8), r+3, seq, nil)
		if got := st.PopDue(r, nil); r > 3 && len(got) != 1 {
			t.Fatalf("round %d popped %d timers, want 1", r, len(got))
		}
	}
	if c, _ := retained(&st, n); len(st.bins) > 4 || len(st.byDue) > 2*4+16 || c > 4*16 {
		t.Fatalf("after %d distinct dues popped one by one: %d bins, %d indexed dues, room for %d entries retained",
			n, len(st.bins), len(st.byDue), c)
	}
	st.PopDue(far, nil)
	for pass := 0; pass < 2; pass++ {
		for r := int64(1); r <= n; r++ {
			seq++
			st.Arm(NodeID(r%8), far+r, seq, nil)
		}
		if got := st.PopDue(far+n, nil); len(got) != n {
			t.Fatalf("pass %d popped %d timers, want %d", pass, len(got), n)
		}
		if c, _ := retained(&st, n); len(st.bins) > n+4 || len(st.byDue) > 2*n+16 || c > 2*n {
			t.Fatalf("pass %d over %d dues armed together: %d bins, %d indexed dues, room for %d entries retained",
				pass, n, len(st.bins), len(st.byDue), c)
		}
	}

	due := 2 * far
	wave := func(d int64) {
		for id := NodeID(0); id < n; id++ {
			seq++
			st.Arm(id, d, seq, nil)
		}
	}
	wave(due)
	st.PopDue(due, nil)
	for cycle := 0; cycle < 4; cycle++ {
		seq++
		st.Arm(0, due+1, seq, nil) // takes the last wave's emptied bin
		wave(due + 2)
		due += 2
		if got := st.PopDue(due, nil); len(got) != n+1 {
			t.Fatalf("cycle %d popped %d timers, want %d", cycle, len(got), n+1)
		}
		if c, large := retained(&st, n/2); large > 1 || c > 2*n+16*len(st.bins) {
			t.Fatalf("cycle %d: %d wave-sized arrays, room for %d entries retained after popping every wave of %d",
				cycle, large, c, n)
		}
	}
	if err := checkBins(&st); err != nil {
		t.Fatal(err)
	}
}
