package harness

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// expBatch: the churn-throughput experiment. Deletions arriving in
// bursts run through dist.Simulation.DeleteBatch, which overlaps the
// repairs of independent damaged regions; this sweep measures rounds
// and messages against batch size for the three burst shapes the
// adversary can produce — vertex-disjoint victims (best case: one
// wave regardless of k), uniformly random victims, and deliberately
// colliding clusters (worst case: maximal serialization). The claim
// under test is the throughput lever itself: rounds per batch must
// track the serialization depth (waves), not the batch size.
func expBatch(o Options) []metrics.Table {
	n := 256
	batches := 6
	ks := []int{1, 2, 4, 8, 16}
	if o.Quick {
		n, batches = 64, 3
		ks = []int{1, 4}
	}
	strategies := []adversary.BatchStrategy{
		adversary.DisjointBatch{},
		adversary.RandomBatch{},
		adversary.CollidingBatch{},
	}
	t := metrics.Table{
		Title: fmt.Sprintf("EXP-BATCH: batched deletions on powerlaw n=%d, %d batches per cell", n, batches),
		Columns: []string{"strategy", "k", "deletions", "mean rounds/batch", "mean waves",
			"mean groups", "msgs/deletion", "rounds/(waves x single)"},
	}
	// Baseline: the rounds of one isolated deletion on this topology.
	single := func(seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		s := dist.NewSimulation(graph.PreferentialAttachment(n, 3, rng))
		live := s.LiveNodes()
		if err := s.Delete(live[rng.Intn(len(live))]); err != nil {
			panic(err)
		}
		return float64(s.LastRecovery().Rounds)
	}(o.Seed + 1)

	for _, strat := range strategies {
		for _, k := range ks {
			rng := rand.New(rand.NewSource(o.Seed + int64(100*k)))
			s := dist.NewSimulation(graph.PreferentialAttachment(n, 3, rng))
			view := distBatchView{s}
			var rounds, waves, groups, msgs, dels float64
			ran := 0
			for b := 0; b < batches; b++ {
				batch := strat.NextBatch(view, rng, k)
				if len(batch) == 0 {
					break
				}
				if err := s.DeleteBatch(batch); err != nil {
					panic(err)
				}
				bs := s.LastBatch()
				rounds += float64(bs.Rounds)
				waves += float64(bs.Waves)
				groups += float64(bs.Groups)
				msgs += float64(bs.Messages)
				dels += float64(bs.Batch)
				ran++
			}
			if ran == 0 {
				continue
			}
			f := float64(ran)
			norm := 0.0
			if waves > 0 && single > 0 {
				norm = rounds / (waves / f * single) / f
			}
			t.AddRow(strat.Name(), metrics.D(k), metrics.D(int(dels)),
				metrics.F(rounds/f), metrics.F(waves/f), metrics.F(groups/f),
				metrics.F(msgs/dels), metrics.F(norm))
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("single isolated deletion on this topology: %.0f rounds", single),
		"disjoint victims must keep waves ~1 and rounds ~independent of k; colliding clusters serialize (waves -> k)",
		"rounds/(waves x single) staying O(1) is the throughput claim: cost tracks serialization depth, not batch size")
	return []metrics.Table{t}
}

// distBatchView adapts dist.Simulation to adversary.View for batch
// selection.
type distBatchView struct{ s *dist.Simulation }

func (v distBatchView) LiveNodes() []graph.NodeID { return v.s.LiveNodes() }
func (v distBatchView) Network() *graph.Graph     { return v.s.Physical() }
func (v distBatchView) GPrime() *graph.Graph      { return v.s.GPrime() }

// StubCount / StubAt expose the simulation's incremental stub index,
// making the view an adversary.StubView: preferential-attachment churn
// samples in O(log n) instead of materializing the stub slice.
func (v distBatchView) StubCount() int            { return v.s.StubCount() }
func (v distBatchView) StubAt(i int) graph.NodeID { return v.s.StubAt(i) }
