package dist

import (
	"testing"

	"repro/internal/graph"
)

// FuzzBandwidthSchedule aims byte-driven bandwidth configurations and
// op schedules at the congestion model: a global per-edge cap, a
// handful of per-edge overrides (heterogeneous links), the leader
// pacing toggled on or off, and a mixed insert/delete/batch schedule.
// Whatever the configuration, the bandwidth-limited run must converge
// to exactly the same healed graph as an unlimited twin fed the same
// schedule — bandwidth may delay traffic, never change its meaning —
// and the limited simulation must pass full revalidation.
func FuzzBandwidthSchedule(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x23, 0x11})
	f.Add([]byte{0x13, 0x47, 0x81, 0x03, 0x62})
	f.Add([]byte{0x28, 0x90, 0x91, 0x30, 0x92, 0x15, 0x00})
	f.Add([]byte{0x3f, 0xff, 0x7f, 0x3f, 0x1f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 40 {
			data = data[:40]
		}
		cfg, ops := data[0], data[1:]

		g0 := graph.Grid(4, 4) // 16 nodes, ids 0..15
		limited := NewSimulation(g0)
		unlimited := NewSimulation(g0)

		// Low bits: global cap 1..4; bit 4: leader pacing off; bits
		// 5..6: how many grid edges get a tighter override.
		B := 1 + int(cfg&0x03)
		limited.SetBandwidth(B)
		limited.SetSpread(cfg&0x10 == 0)
		overrides := int(cfg >> 5 & 0x03)
		for i := 0; i < overrides; i++ {
			// Deterministic spread of directed overrides across the grid.
			from := NodeID((int(cfg) + 3*i) % 16)
			to := NodeID((int(cfg) + 3*i + 4) % 16)
			limited.SetEdgeBandwidth(from, to, 1)
		}

		nextID := NodeID(400)
		for _, b := range ops {
			live := limited.LiveNodes()
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
				if err := limited.Insert(v, nbrs); err != nil {
					t.Fatalf("limited insert: %v", err)
				}
				if err := unlimited.Insert(v, nbrs); err != nil {
					t.Fatalf("unlimited insert: %v", err)
				}
				continue
			}
			anchor := live[int(b&0x0f)%len(live)]
			k := 1 + int(b>>4&0x07)
			batch := collidingBatch(limited, anchor, live, k)
			if err := limited.DeleteBatch(batch); err != nil {
				t.Fatalf("limited delete batch %v: %v", batch, err)
			}
			if err := unlimited.DeleteBatch(batch); err != nil {
				t.Fatalf("unlimited delete batch %v: %v", batch, err)
			}
			if !limited.Physical().Equal(unlimited.Physical()) {
				t.Fatalf("B=%d batch %v: healed graphs diverge from B=inf", B, batch)
			}
			lb, ub := limited.LastBatch(), unlimited.LastBatch()
			if lb.Rounds < ub.Rounds {
				t.Fatalf("B=%d batch %v: limited run took fewer rounds (%d) than unlimited (%d)",
					B, batch, lb.Rounds, ub.Rounds)
			}
		}
		if err := limited.Verify(); err != nil {
			t.Fatal(err)
		}
		if err := unlimited.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}
