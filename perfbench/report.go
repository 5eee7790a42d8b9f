package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/transport"
)

// handlerPayloads are the payload types whose handlers the per-layer
// ledger breaks out by name: of the types every workload delivers, the
// ten that take the most handler time. The stdout table lists every
// type seen.
var handlerPayloads = []string{
	"msgDeath", "msgChampion", "msgLeader", "msgBeginRepair", "msgFreshLeaf",
	"msgPhaseDone", "msgSubtreeDone", "msgCreateHelper", "msgSetParent", "msgMergeAck",
}

// row is one printed metric with the number of samples behind it.
type row struct {
	name    string
	value   float64
	unit    string
	samples int
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the run's checks and metrics as a table, then the
// result object as the last line.
func report(out io.Writer, r *runResult, perLayer bool) error {
	res := result{Metrics: make(map[string]metric)}
	for _, cycle := range append(append([][]*episode{}, r.cycles...), r.traced...) {
		for j, ep := range cycle {
			res.Attempted += r.inputs[j].sc.ops
			res.Failed += ep.failed
			if ep.err != nil {
				fmt.Fprintf(out, "input %d failed its checks: %v\n", r.inputs[j].seed, ep.err)
			}
		}
	}
	if r.err != nil {
		fmt.Fprintf(out, "run failed its checks: %v\n", r.err)
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "workload %s: %d untraced and %d traced cycles over %d inputs\n",
		r.w.name, len(r.cycles), len(r.traced), len(r.inputs))
	for j, in := range r.inputs {
		ep := r.cycles[0][j]
		fmt.Fprintf(out, "input %d: %d nodes, %d ops in %d waves, %.2f msgs/op, %d rounds, healed graph %v\n",
			in.seed, in.g0.NumNodes(), in.sc.ops, len(in.sc.waves),
			float64(ep.traffic.Messages)/float64(in.sc.ops), ep.rounds, ep.hash)
		if r.refs != nil {
			ref := r.refs[j]
			fmt.Fprintf(out, "input %d on simnet: %.2f msgs/op, %d rounds, healed graph %v\n",
				in.seed, float64(ref.traffic.Messages)/float64(in.sc.ops), ref.rounds, ref.hash)
		}
	}

	rows := endToEnd(r)
	if perLayer {
		rows = layers(r, out)
	}
	for _, m := range rows {
		fmt.Fprintf(out, "%-36s %16.6g %-8s n=%d\n", m.name, m.value, m.unit, m.samples)
		res.Metrics[m.name] = metric{Value: m.value, Unit: m.unit}
	}
	return json.NewEncoder(out).Encode(res)
}

// sum adds f over one cycle's episodes.
func sum(cycle []*episode, f func(*episode) float64) float64 {
	t := 0.0
	for _, ep := range cycle {
		t += f(ep)
	}
	return t
}

// quartileRun is one cycle's work with every wave and every repair
// timed at the lower quartile of its repeats over the cycles.
type quartileRun struct {
	drive          time.Duration
	heal           []time.Duration // one per delete
	retired, ticks int
}

// lowerQuartiles times each input's waves and repairs at the lower
// quartile of their repeats. Every repeat of an input does identical
// work, and the shared host's slow spells only ever lengthen a wave or
// a repair, so a spell shows only if it hits the same wave in three
// repeats out of four. The minimum would filter more, but it keeps
// falling as repeats are added, so a faster program, fitting more
// cycles into the run, would read faster still; the quartile does not
// drift with the number of repeats.
func lowerQuartiles(cycles [][]*episode) quartileRun {
	var q quartileRun
	for j, first := range cycles[0] {
		var reps []*episode
		for _, cycle := range cycles {
			if ep := cycle[j]; len(ep.waves) == len(first.waves) {
				reps = append(reps, ep) // a failed episode is reported by the checks
			}
		}
		xs := make([]time.Duration, 0, len(reps))
		for i := range first.waves {
			xs = xs[:0]
			for _, ep := range reps {
				xs = append(xs, ep.waves[i])
			}
			q.drive += lowerQuartile(xs)
		}
		for i := range first.heal {
			xs = xs[:0]
			for _, ep := range reps {
				if ep.heal[i] > 0 {
					xs = append(xs, ep.heal[i])
				}
			}
			if len(xs) > 0 {
				q.heal = append(q.heal, lowerQuartile(xs))
			}
		}
		q.retired += first.retired
		q.ticks += first.ticks
	}
	return q
}

// lowerQuartile is the 0.25-quantile of ds, interpolated between order
// statistics so that it moves smoothly with the number of samples. It
// sorts ds.
func lowerQuartile(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	pos := float64(len(ds)-1) / 4
	i := int(pos)
	if i+1 >= len(ds) {
		return ds[i]
	}
	return ds[i] + time.Duration((pos-float64(i))*float64(ds[i+1]-ds[i]))
}

// endToEnd computes the metrics a user of the overlay sees, from the
// untraced cycles: rates and heal-latency percentiles with each wave
// and repair at the lower quartile of its repeats, set-up time as the
// median over every set-up.
func endToEnd(r *runResult) []row {
	var setup []float64
	for _, cycle := range r.cycles {
		for _, ep := range cycle {
			setup = append(setup, ep.setup.Seconds())
		}
	}
	f := lowerQuartiles(r.cycles)
	msgs := sum(r.cycles[0], func(ep *episode) float64 { return float64(ep.traffic.Messages) })
	n := len(r.cycles)
	return []row{
		{"setup_s", median(setup), "s", len(setup)},
		{"ops_s", float64(f.retired) / f.drive.Seconds(), "1/s", n},
		{"rounds_s", float64(f.ticks) / f.drive.Seconds(), "1/s", n},
		{"heal_p50_ms", ms(percentile(f.heal, 0.50)), "ms", len(f.heal)},
		{"heal_p99_ms", ms(percentile(f.heal, 0.99)), "ms", len(f.heal)},
		{"msgs_per_op", msgs / float64(r.ops()), "msgs/op", n},
		{"peak_rss_mb", r.peakRSS, "MB", 1},
	}
}

// layers computes the per-layer ledger from the traced cycles, and the
// Go runtime's share from the untraced cycles they alternated with.
// Every time it reports is measured on every workload, so none reads a
// constant zero; a layer a workload does not reach shows in the counts
// and in the batch's share of wall time.
func layers(r *runResult, out io.Writer) []row {
	var l ledger
	var drive time.Duration
	payload := make(map[string]*span)
	for _, cycle := range r.traced {
		for _, ep := range cycle {
			l.merge(ep.led)
			for typ, sp := range ep.led.payload {
				name := typ.Name()
				if payload[name] == nil {
					payload[name] = &span{}
				}
				payload[name].merge(*sp)
			}
			drive += ep.drive
		}
	}
	k := float64(len(r.traced))
	ops := float64(r.ops())
	perCycleMS := func(d time.Duration) float64 { return ms(d) / k }
	share := func(d time.Duration) float64 { return 100 * d.Seconds() / drive.Seconds() }
	traffic := func(f func(transport.Stats) int) float64 {
		return sum(r.cycles[0], func(ep *episode) float64 { return float64(f(ep.traffic)) })
	}
	msgs := traffic(func(s transport.Stats) int { return s.Messages })
	ticks := sum(r.cycles[0], func(ep *episode) float64 { return float64(ep.ticks) })
	coal := func(f func(dist.CoalesceStats) int) float64 {
		return sum(r.cycles[0], func(ep *episode) float64 { return float64(f(ep.coal)) })
	}
	// meanPerCycle averages over the untraced cycles: a median would read
	// zero GC work on a workload that collects less than once a cycle.
	meanPerCycle := func(f func(*episode) float64) float64 {
		t := 0.0
		for _, cycle := range r.cycles {
			t += sum(cycle, f)
		}
		return t / float64(len(r.cycles))
	}

	rows := []row{
		{"dist.submit_us", us(l.submit.d) / nonzero(l.submit.n), "us", l.submit.n},
		{"dist.tick_self_ms", perCycleMS(l.tick.d - l.pulseInTick.d), "ms", l.tick.n},
		{"dist.pending_mean", float64(l.pendingSum) / nonzero(l.tick.n), "count", l.tick.n},
		{"dist.inflight_mean", float64(l.inflightSum) / nonzero(l.tick.n), "count", l.tick.n},
		{"dist.coalesce_cancelled_per_op", coal(func(c dist.CoalesceStats) int { return c.Cancelled }) / ops, "count", 1},
		{"dist.coalesce_merged_per_op", coal(func(c dist.CoalesceStats) int { return c.Merged }) / ops, "count", 1},
		{"dist.batch_wall_pct", share(l.batch.d), "%", l.batch.n},
		{"dist.batch_claim_msgs", float64(l.batchClaimMsgs) / nonzero(l.batch.n), "count", l.batch.n},
		{"dist.batch_claim_rounds", float64(l.batchClaimRounds) / nonzero(l.batch.n), "count", l.batch.n},
		{"dist.handler_self_ms", perCycleMS(l.handler.d - l.sendInHandler), "ms", l.handler.n},
	}
	for _, name := range handlerPayloads {
		sp := payload[name]
		if sp == nil {
			sp = &span{}
		}
		rows = append(rows,
			row{"dist.handler." + name + ".us", us(sp.d) / nonzero(sp.n), "us", sp.n},
			row{"dist.handler." + name + ".n_per_op", float64(sp.n) / (ops * k), "count", sp.n})
	}
	untraced := lowerQuartiles(r.cycles).drive
	rows = append(rows,
		row{"transport.election_msgs_per_op", traffic(func(s transport.Stats) int { return s.ElectionMessages }) / ops, "count", 1},
		row{"transport.sync_msgs_per_op", traffic(func(s transport.Stats) int { return s.SyncMessages }) / ops, "count", 1},
		row{"transport.words_per_op", traffic(func(s transport.Stats) int { return s.TotalWords }) / ops, "count", 1},
		row{"transport.audit_msgs_per_round", traffic(func(s transport.Stats) int { return s.AuditMessages }) / ticks, "count", 1},
		row{"transport.pulse_self_us", us(l.pulse.d-l.handler.d) / nonzero(l.pulse.n), "us", l.pulse.n},
		row{"transport.send_us", us(l.send.d) / nonzero(l.send.n), "us", l.send.n},
		row{"transport.msgs_per_pulse", msgs * k / nonzero(l.pulse.n), "count", l.pulse.n},
		row{"go.alloc_bytes_per_op", meanPerCycle(func(ep *episode) float64 { return float64(ep.mem.allocBytes) }) / ops, "B", len(r.cycles)},
		row{"go.gc_cycles", meanPerCycle(func(ep *episode) float64 { return float64(ep.mem.gcCycles) }), "count", len(r.cycles)},
		row{"go.gc_pause_ms", meanPerCycle(func(ep *episode) float64 { return ms(ep.mem.gcPause) }), "ms", len(r.cycles)},
		row{"bench.trace_overhead_pct", 100 * (lowerQuartiles(r.traced).drive.Seconds()/untraced.Seconds() - 1), "%", len(r.traced)},
		row{"bench.ledger_gap_pct", 100 * (1 - l.covered().Seconds()/drive.Seconds()), "%", len(r.traced)},
	)

	// The full breakdown of handler time by payload type, for reading.
	names := make([]string, 0, len(payload))
	for name := range payload {
		names = append(names, name)
	}
	slices.SortFunc(names, func(a, b string) int { return cmp.Compare(payload[b].d, payload[a].d) })
	fmt.Fprintf(out, "handler time by payload over %d traced cycles (sends included):\n", len(r.traced))
	for _, name := range names {
		sp := payload[name]
		fmt.Fprintf(out, "  %-20s %10d calls %12.3f ms %8.3f us/call\n", name, sp.n, ms(sp.d), us(sp.d)/float64(sp.n))
	}
	fmt.Fprintf(out, "traced wall-time shares: Submit %.1f%%, Tick-Pulse %.1f%%, DeleteBatch %.1f%%, handlers %.1f%%, transport self %.1f%%\n",
		share(l.submit.d), share(l.tick.d-l.pulseInTick.d), share(l.batch.d), share(l.handler.d), share(l.pulse.d-l.handler.d))
	return rows
}

func nonzero(n int) float64 { return math.Max(float64(n), 1) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is the nearest-rank q-quantile.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := slices.Clone(ds)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
