package wirenet

import (
	"testing"

	"repro/internal/transport"
)

// BenchmarkHubRelay times the fabric's latency per message level on two
// shards. One op sends pings that bounce between two processors until
// their count runs out, and Pulses until the cascade drains:
//
//   - same: one 10-level ping between two processors on one shard;
//   - cross: one 10-level ping between processors on different shards;
//   - wave: six 5-level pings at once, each between its own cross-shard
//     pair, three started from each shard.
//
// us/level is the op's wall time over its levels: the handlers do no
// work, so it is the hub's encode and routing plus the round trip
// through the workers, one message after another.
func BenchmarkHubRelay(b *testing.B) {
	cases := []struct {
		name   string
		pairs  [][2]NodeID // first member sends the opening ping
		levels int
	}{
		{"same", [][2]NodeID{{2, 4}}, 10},
		{"cross", [][2]NodeID{{1, 2}}, 10},
		{"wave", [][2]NodeID{{1, 2}, {4, 3}, {5, 6}, {8, 7}, {9, 10}, {12, 11}}, 5},
	}
	bounce := func(e transport.Endpoint, m transport.Message) {
		if p := m.Payload.(testPing); p.N > 1 {
			e.Send(m.To, m.From, testPing{N: p.N - 1}, 1)
		}
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			h, err := New(Config{Shards: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer h.Close()
			for _, p := range c.pairs {
				h.AddNode(p[0], bounce)
				h.AddNode(p[1], bounce)
			}
			want := len(c.pairs) * c.levels
			op := func() {
				for _, p := range c.pairs {
					h.Send(p[0], p[1], testPing{N: int64(c.levels)}, 1)
				}
				if d := h.Pulse().Delivered; d != want {
					b.Fatalf("Pulse delivered %d, want %d", d, want)
				}
			}
			op() // connections and buffers warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*c.levels), "us/level")
		})
	}
}
