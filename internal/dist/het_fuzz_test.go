package dist

import (
	"testing"

	"repro/internal/graph"
)

// FuzzHeterogeneousCaps aims byte-driven heterogeneous capacity maps
// at the congestion model and the per-edge send pacing: a global cap,
// node-level clamps (the EXP-HET slow access links), a few directed
// edge overrides, and pacing toggled — against a mixed insert/delete/
// batch schedule. Whatever the capacity landscape, the run must
// converge to exactly the healed graph of an unlimited twin fed the
// same schedule, in at least as many rounds, with full revalidation
// (incremental AND full) passing. This is the fuzz backstop for the
// slow-link scenarios: capacity maps may starve links arbitrarily but
// can never change what the protocol computes.
func FuzzHeterogeneousCaps(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 0x23, 0x11})
	f.Add([]byte{0x2a, 0x47, 0x81, 0x03, 0x62})
	f.Add([]byte{0x97, 0x90, 0x91, 0x30, 0x92, 0x15, 0x00})
	f.Add([]byte{0xff, 0xff, 0x7f, 0x3f, 0x1f})
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

		// Bits 0..1: global cap (0 = unlimited, else 1..3); bit 2:
		// pacing off; bits 3..5: every (1+k)-th node clamped to 1
		// word/round (k=7 disables); bits 6..7: directed edge overrides.
		if B := int(cfg & 0x03); B > 0 {
			limited.SetBandwidth(B)
		}
		limited.SetSpread(cfg&0x04 == 0)
		if stride := int(cfg >> 3 & 0x07); stride != 7 {
			for i := 0; i < 16; i += 1 + stride {
				limited.SetNodeBandwidth(NodeID(i), 1)
			}
		}
		for i := 0; i < int(cfg>>6&0x03); i++ {
			from := NodeID((int(cfg) + 5*i) % 16)
			to := NodeID((int(cfg) + 5*i + 7) % 16)
			limited.SetEdgeBandwidth(from, to, 1)
		}

		nextID := NodeID(600)
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
				t.Fatalf("cfg %#x batch %v: healed graphs diverge from the unlimited twin", cfg, batch)
			}
			lb, ub := limited.LastBatch(), unlimited.LastBatch()
			if lb.Rounds < ub.Rounds {
				t.Fatalf("cfg %#x batch %v: limited run took fewer rounds (%d) than unlimited (%d)",
					cfg, batch, lb.Rounds, ub.Rounds)
			}
			if err := limited.VerifyDelta(2); err != nil {
				t.Fatalf("cfg %#x batch %v: incremental verify: %v", cfg, batch, err)
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
