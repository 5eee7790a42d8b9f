package dist

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// FuzzBatchSchedule aims adversarial deletion batches at region
// admission: byte-driven batches that deliberately pick clusters of
// adjacent nodes (and nodes simulating each other's helpers) so their
// repair footprints overlap and their damage walks would collide on
// shared records. Whatever the collision pattern, admission must
// serialize every overlapping pair: the batch must neither deadlock
// (the drain's stall bound errors out), double-strip (the epoch guard
// on the Breakflag panics), nor diverge from the sequential reference.
//
// Byte encoding: each op byte either inserts (high bit set, neighbors
// from the low bits) or seeds a deletion batch; a batch consumes the
// seed byte (anchor node + batch size) and grows around the anchor by
// taking physically-nearby live nodes — the worst case for walk
// collisions — plus every third member drawn far away to mix in
// independent regions.
func FuzzBatchSchedule(f *testing.F) {
	f.Add([]byte{0x00, 0x23, 0x11})
	f.Add([]byte{0x47, 0x81, 0x03, 0x62})
	f.Add([]byte{0x90, 0x91, 0x30, 0x92, 0x15, 0x00})
	f.Add([]byte{0xff, 0x7f, 0x3f, 0x1f})
	// Termination-detection edge cases: a max-size lopsided batch whose
	// small epochs finish while the big one is still electing...
	f.Add([]byte{0x7f, 0x70, 0x10})
	// ...repairs completing during an in-flight election after churn
	// thinned the grid (singleton regions next to deep RT damage)...
	f.Add([]byte{0x05, 0x0a, 0x03, 0x75, 0x20})
	// ...and batch epochs finishing out of order across waves (inserts
	// grow fresh leaves whose repairs are trivial one-participant runs).
	f.Add([]byte{0x81, 0x82, 0x7c, 0x00, 0x3d})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 48 {
			data = data[:48]
		}
		g0 := graph.Grid(4, 4) // 16 nodes, ids 0..15
		s := NewSimulation(g0)
		e := core.NewEngine(g0)
		nextID := NodeID(200)
		for _, b := range data {
			live := s.LiveNodes()
			if len(live) == 0 {
				break
			}
			if b&0x80 != 0 {
				v := nextID
				nextID++
				nbrs := []NodeID{live[int(b&0x3f)%len(live)]}
				if b&0x40 != 0 {
					other := live[int(b>>3&0x0f)%len(live)]
					if other != nbrs[0] {
						nbrs = append(nbrs, other)
					}
				}
				if err := s.Insert(v, nbrs); err != nil {
					t.Fatalf("dist insert: %v", err)
				}
				if err := e.Insert(v, nbrs); err != nil {
					t.Fatalf("core insert: %v", err)
				}
				continue
			}
			anchor := live[int(b&0x0f)%len(live)]
			k := 1 + int(b>>4&0x07)
			batch := collidingBatch(s, anchor, live, k)
			if err := s.DeleteBatch(batch); err != nil {
				t.Fatalf("dist delete batch %v: %v", batch, err)
			}
			if err := e.DeleteBatch(batch); err != nil {
				t.Fatalf("core delete batch %v: %v", batch, err)
			}
			if !s.Physical().Equal(e.Physical()) {
				t.Fatalf("batch %v: healed graphs diverge", batch)
			}
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		if err := e.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// collidingBatch grows a batch around anchor by BFS over the current
// physical network — maximizing shared helpers between the members'
// repairs — mixing in a far-away node every third member.
func collidingBatch(s *Simulation, anchor NodeID, live []NodeID, k int) []NodeID {
	phys := s.Physical()
	order := phys.BFSOrder(anchor)
	batch := []NodeID{anchor}
	seen := map[NodeID]struct{}{anchor: {}}
	far := len(live) - 1
	for _, v := range order {
		if len(batch) >= k {
			break
		}
		if _, dup := seen[v]; dup {
			continue
		}
		if len(batch)%3 == 2 {
			// Every third member: the live node farthest by ID still
			// unused, pulling in an (often) independent region.
			for far >= 0 {
				w := live[far]
				far--
				if _, dup := seen[w]; !dup {
					batch = append(batch, w)
					seen[w] = struct{}{}
					break
				}
			}
			continue
		}
		batch = append(batch, v)
		seen[v] = struct{}{}
	}
	return batch
}
