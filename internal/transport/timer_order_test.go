package transport_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/transport"
)

// TestTimerFiringOrder pins the timer contract shared by every
// backend: three processors arm tied and distinct dues in scrambled
// order, one of them dies between pulses, and the survivors' timers
// fire one due per pulse in (due, owner, seq) order. Each pulse must
// report every timer it fired exactly once, and Pending must drop by
// the dead processor's timers the moment it is removed (a lone timer
// is one delivery, not two). channet runs
// tied owners concurrently, so order across owners is compared within
// a pulse after a stable sort by owner; each owner's own timers must
// still arrive in arming order.
func TestTimerFiringOrder(t *testing.T) {
	type fire struct {
		owner transport.NodeID
		name  string
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			solo := b.make()
			solo.AddNode(1, func(transport.Endpoint, transport.Message) {})
			solo.SendTimer(1, "solo", 1)
			if d := solo.Step(); d != 1 {
				t.Fatalf("one armed timer: Step = %d, want 1", d)
			}

			n := b.make()
			var mu sync.Mutex
			var pulse []fire
			for _, id := range []transport.NodeID{1, 2, 3} {
				n.AddNode(id, func(_ transport.Endpoint, m transport.Message) {
					mu.Lock()
					pulse = append(pulse, fire{m.To, m.Payload.(string)})
					mu.Unlock()
				})
			}
			arms := []struct {
				owner transport.NodeID
				name  string
				delay int
			}{
				{3, "3a", 2}, {1, "1a", 3}, {2, "2a", 2}, {1, "1b", 2},
				{3, "3b", 1}, {2, "2b", 3}, {1, "1c", 2}, {2, "2c", 1},
			}
			for _, a := range arms {
				n.SendTimer(a.owner, a.name, a.delay)
			}
			if got := n.Pending(); got != len(arms) {
				t.Fatalf("Pending = %d with %d timers armed", got, len(arms))
			}
			step := func() []fire {
				pulse = nil
				if d := n.Step(); d != len(pulse) {
					t.Fatalf("Step returned %d for %d fired timers %v", d, len(pulse), pulse)
				}
				sort.SliceStable(pulse, func(i, j int) bool { return pulse[i].owner < pulse[j].owner })
				return pulse
			}
			want := [][]fire{
				{{2, "2c"}, {3, "3b"}},
				{{1, "1b"}, {1, "1c"}, {2, "2a"}},
				{{1, "1a"}, {2, "2b"}},
			}
			if got := step(); !reflect.DeepEqual(got, want[0]) {
				t.Fatalf("first pulse fired %v, want %v", got, want[0])
			}
			n.RemoveNode(3) // takes 3a with it
			if got := n.Pending(); got != 5 {
				t.Fatalf("Pending = %d after removing processor 3, want 5", got)
			}
			for i, w := range want[1:] {
				if got := step(); !reflect.DeepEqual(got, w) {
					t.Fatalf("pulse %d fired %v, want %v", i+2, got, w)
				}
			}
			if got, d := n.Pending(), n.Step(); got != 0 || d != 0 {
				t.Fatalf("after the last timer: Pending = %d, Step = %d, want 0, 0", got, d)
			}
		})
	}
}
