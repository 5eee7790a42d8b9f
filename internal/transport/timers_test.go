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

// checkHeap verifies the store's internal bookkeeping: the heap order,
// and the live and stale counts against the entries' generations.
func checkHeap(st *Timers) error {
	live, stale := 0, 0
	for i := range st.h {
		if i > 0 && st.h[i].before(&st.h[(i-1)/2]) {
			return fmt.Errorf("heap order broken at %d", i)
		}
		if st.slots[st.h[i].slot].gen == st.h[i].gen {
			live++
		} else {
			stale++
		}
	}
	if live != st.live || stale != st.stale {
		return fmt.Errorf("entries: %d live, %d stale; counters say %d, %d", live, stale, st.live, st.stale)
	}
	return nil
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
// re-arming under the same ID. Every pop must return the same
// messages in the same order, and Len must be exact after every op, as
// must the store's own heap order and stale-entry count.
func TestTimersMatchNaiveModel(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var st Timers
		var ref naiveTimers
		seq := 0
		now := int64(0)
		for op := 0; op < 400; op++ {
			var what string
			switch k := rng.Intn(10); {
			case k < 5:
				owner := NodeID(rng.Intn(6))
				due := now + 1 + int64(rng.Intn(4))
				seq++
				payload := fmt.Sprintf("t%d", seq)
				st.Arm(owner, due, seq, payload)
				ref.arm(owner, due, seq, payload)
				what = fmt.Sprintf("arm(%d, due %d)", owner, due)
			case k < 7:
				owner := NodeID(rng.Intn(6))
				st.RemoveOwner(owner)
				ref.removeOwner(owner)
				what = fmt.Sprintf("remove(%d)", owner)
			case k < 9:
				now += int64(rng.Intn(3))
				got := st.PopDue(now, nil)
				want := ref.popDue(now)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: PopDue(%d) = %v, want %v", seed, op, now, got, want)
				}
				what = fmt.Sprintf("popDue(%d)", now)
			default:
				got, gotDue := st.PopEarliest(nil)
				want, wantDue := ref.popEarliest()
				if !reflect.DeepEqual(got, want) || gotDue != wantDue {
					t.Fatalf("seed %d op %d: PopEarliest = %v due %d, want %v due %d",
						seed, op, got, gotDue, want, wantDue)
				}
				if gotDue > now {
					now = gotDue
				}
				what = "popEarliest"
			}
			if st.Len() != len(ref.list) {
				t.Fatalf("seed %d op %d (%s): Len = %d, want %d", seed, op, what, st.Len(), len(ref.list))
			}
			if got, want := storeOwners(&st), ref.owners(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): owners %v, want %v", seed, op, what, got, want)
			}
			if err := checkHeap(&st); err != nil {
				t.Fatalf("seed %d op %d (%s): %v", seed, op, what, err)
			}
		}
	}
}

// TestTimersStorageTracksLive checks that removal does not leave the
// store holding entries for the dead: owners whose timers are far in
// the future, so none is popped, are removed wholesale and in a
// remove/re-add/re-arm cycle, and the heap, the owner index and the
// slot table must stay within a constant factor of what is live.
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
	if len(st.h) > 2*n+1 || len(st.owners) != n || len(st.slots) > n+1 {
		t.Fatalf("storage after remove/re-arm cycles: %d entries, %d owners, %d slots for %d live timers",
			len(st.h), len(st.owners), len(st.slots), n)
	}
	for id := NodeID(0); id < n-8; id++ {
		st.RemoveOwner(id)
	}
	if st.Len() != 8 {
		t.Fatalf("Len = %d after removing all but 8 owners", st.Len())
	}
	if len(st.h) > 2*8+1 || len(st.owners) != 8 {
		t.Fatalf("storage after removing all but 8 owners: %d entries, %d owners", len(st.h), len(st.owners))
	}
	if got := st.PopDue(far, nil); len(got) != 8 {
		t.Fatalf("popped %d timers, want the 8 survivors", len(got))
	}
}
