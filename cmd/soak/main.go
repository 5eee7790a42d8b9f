// Command soak runs a long randomized churn campaign against the
// Forgiving Graph — both the reference engine and the distributed
// protocol — revalidating every structural invariant continuously and
// reporting distributions of the paper's quantities at the end. It is
// the tool for shaking out rare interleavings beyond what unit tests
// sample.
//
// With -batch k > 1, deletions fire in bursts of up to k, with the
// burst shape picked by -batch-strategy. dist.Simulation.DeleteBatch
// queues each burst in ascending order through the engine's region
// admission, which overlaps independent repairs and serializes
// colliding ones; core.Engine.DeleteBatch is the sequential reference.
//
// With -dist -bandwidth B, every network edge carries at most B
// message-words per round (the congestion model): repairs heal to the
// same graph, only rounds and the congestion counters change, which
// the soak reports at the end. -no-spread disables the repair leader's
// paced instruction bursts for comparison. -slow-frac F additionally
// clamps the lowest-degree fraction F of nodes to 1 word/round on all
// their links (the EXP-HET heterogeneous capacity map), and
// -delete slow-link aims the deletions at the narrowest links.
//
// Checkpoints run the incremental verification (VerifyDelta: only the
// state repairs touched since the last check), so soaking at n ≥ 10⁵
// no longer pays an O(n) revalidation every interval; the final check
// is always the full one, and -full-check restores it everywhere.
//
// With -dist -transport=chan, the processors run as goroutines over Go
// channels with per-processor logical clocks instead of the
// round-synchronous simulator — the Go scheduler picks the delivery
// interleaving, so long campaigns shake out schedules the deterministic
// simulator never produces. The chan substrate has no bandwidth model:
// it rejects -bandwidth, -slow-frac and -parallel.
//
// With -dist -transport=wire, the processors are sharded across worker
// OS processes and every message crosses loopback TCP (length-prefixed
// frames, per-edge FIFO, reconnect-with-resend) — the most hostile
// delivery substrate the repro has, with real kernel scheduling and
// socket buffering picking the interleaving. Like chan, wire has no
// bandwidth model and rejects -bandwidth, -slow-frac and -parallel.
//
// With -dist -async, the campaign drives the OPEN-LOOP engine instead
// of the blocking calls: operations are submitted on the adversary's
// clock (up to -async-gap rounds between submissions, including zero)
// while earlier repairs are still in flight, exercising mid-repair
// admission, leader-to-leader handoff and deferred inserts. The soak
// drains the engine at every checkpoint before validating, and reports
// the pipeline's throughput, completion-latency distribution, and peak
// concurrent-repair depth at the end.
//
// With -async -coalesce, submissions pass through the coalescing
// admission queue (insert/delete flap pairs annihilate before reaching
// the wire; overlapping pending deletions merge into chained repair
// waves with pre-appointed leaders), the churn is biased toward flap
// pairs so the cancel path is exercised, and the campaign reports the
// queue's decision counters at the end. -coalesce-window sets the hold
// window in driver ticks.
//
// Usage:
//
//	soak [-n N] [-topology NAME] [-steps K] [-seed S] [-insert-p P]
//	     [-check-every C] [-dist] [-parallel] [-full-check]
//	     [-batch K] [-batch-strategy random|disjoint|colliding]
//	     [-delete STRATEGY] [-bandwidth B] [-no-spread] [-slow-frac F]
//	     [-async] [-async-gap G] [-transport sim|chan|wire]
//	     [-coalesce] [-coalesce-window W]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/wirenet"
)

func main() {
	// With -transport=wire the hub re-executes this binary to spawn its
	// shard workers; in a worker, MaybeWorker never returns.
	wirenet.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "soak: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		n         = flag.Int("n", 128, "initial node count")
		topology  = flag.String("topology", "powerlaw", "initial topology")
		steps     = flag.Int("steps", 2000, "churn steps")
		seed      = flag.Int64("seed", time.Now().UnixNano(), "random seed (default: time)")
		insertP   = flag.Float64("insert-p", 0.45, "insertion probability per step")
		checkEvy  = flag.Int("check-every", 25, "full invariant re-validation interval")
		useDist   = flag.Bool("dist", false, "soak the distributed protocol instead of the engine")
		parallel  = flag.Bool("parallel", false, "with -dist: goroutine-per-processor delivery")
		batchK    = flag.Int("batch", 1, "deletions per burst (1 = single-deletion path)")
		batchName = flag.String("batch-strategy", "random", "burst shape: random, disjoint, or colliding")
		bandwidth = flag.Int("bandwidth", 0, "with -dist: per-edge cap in words/round (0 = unlimited)")
		noSpread  = flag.Bool("no-spread", false, "with -bandwidth: disable the leader's paced instruction bursts")
		slowFrac  = flag.Float64("slow-frac", 0, "with -dist: mark this fraction of lowest-degree nodes as slow (node cap 1 word/round); inserted nodes join the slow class with the same probability")
		deleteStr = flag.String("delete", "random", "single-deletion strategy (see adversary.Names; slow-link targets minimum-capacity links)")
		fullCheck = flag.Bool("full-check", false, "run the full O(n) verification at every checkpoint instead of the incremental one (the final check is always full)")
		async     = flag.Bool("async", false, "with -dist: drive the open-loop engine (Submit/Tick) instead of the blocking calls")
		asyncGap  = flag.Int("async-gap", 2, "with -async: max rounds the adversary waits between submissions (0 = fully open loop)")
		transp    = flag.String("transport", "sim", "with -dist: message substrate: sim (round simulator, congestion model), chan (goroutine-per-processor channels, logical clocks), or wire (processor shards in worker OS processes over loopback TCP)")
		corruptP  = flag.Float64("corrupt-rate", 0, "with -dist: probability per step of silently corrupting one processor's state (random mode); enables the self-stabilizing audit layer, and checkpoints assert the corruption healed via the full Verify")
		auditPrd  = flag.Int("audit-period", 128, "with -corrupt-rate: audit pulse interval in rounds")
		coalesce  = flag.Bool("coalesce", false, "with -async: enable the coalescing admission queue (cancel insert/delete pairs, merge overlapping deletions) and bias the churn toward flap pairs")
		coalWin   = flag.Int("coalesce-window", 4, "with -coalesce: hold window in driver ticks before a held op launches (0 = admit immediately)")
	)
	flag.Parse()

	gen, err := graph.Generator(*topology)
	if err != nil {
		return err
	}
	if *batchK < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", *batchK)
	}
	batchStrat, err := adversary.BatchByName(*batchName)
	if err != nil {
		return err
	}
	if *bandwidth < 0 {
		return fmt.Errorf("-bandwidth must be >= 0, got %d", *bandwidth)
	}
	if *bandwidth > 0 && !*useDist {
		return fmt.Errorf("-bandwidth applies to the distributed protocol only; add -dist")
	}
	if *noSpread && *bandwidth == 0 {
		return fmt.Errorf("-no-spread only matters under a finite bandwidth; add -bandwidth")
	}
	if *slowFrac < 0 || *slowFrac >= 1 {
		return fmt.Errorf("-slow-frac must be in [0, 1), got %v", *slowFrac)
	}
	if *slowFrac > 0 && !*useDist {
		return fmt.Errorf("-slow-frac applies to the distributed protocol only; add -dist")
	}
	deleter, err := adversary.ByName(*deleteStr)
	if err != nil {
		return err
	}
	if *transp != "sim" && *transp != "chan" && *transp != "wire" {
		return fmt.Errorf("-transport must be sim, chan or wire, got %q", *transp)
	}
	// chan and wire share the guard set: both substrates deliver on
	// their own (scheduler- or kernel-picked) interleaving and neither
	// carries the simnet congestion model.
	concurrent := *transp == "chan" || *transp == "wire"
	if concurrent && !*useDist {
		return fmt.Errorf("-transport applies to the distributed protocol only; add -dist")
	}
	if concurrent && *bandwidth > 0 {
		return fmt.Errorf("-transport=%s has no bandwidth model (congestion experiments are simnet-only)", *transp)
	}
	if concurrent && *slowFrac > 0 {
		return fmt.Errorf("-slow-frac needs the simnet bandwidth model; drop -transport=%s", *transp)
	}
	if concurrent && *parallel {
		return fmt.Errorf("-parallel selects simnet's shadow-network delivery; -transport=%s is already concurrent", *transp)
	}
	if *async && !*useDist {
		return fmt.Errorf("-async drives the distributed protocol's open-loop engine; add -dist")
	}
	if *async && *batchK > 1 {
		return fmt.Errorf("-async submits operations continuously; it does not combine with -batch")
	}
	if *asyncGap < 0 {
		return fmt.Errorf("-async-gap must be >= 0, got %d", *asyncGap)
	}
	if *corruptP < 0 || *corruptP >= 1 {
		return fmt.Errorf("-corrupt-rate must be in [0, 1), got %v", *corruptP)
	}
	if *corruptP > 0 && !*useDist {
		return fmt.Errorf("-corrupt-rate perturbs distributed processor state; add -dist")
	}
	if *auditPrd < 1 {
		return fmt.Errorf("-audit-period must be >= 1, got %d", *auditPrd)
	}
	// The coalescer sits on the open-loop Submit path; its decisions
	// read only driver-side state, so any transport backend is fine
	// (the differential tests pin sim/chan identity), but the blocking
	// and batch paths never hold ops and have nothing to coalesce.
	if *coalesce && !*async {
		return fmt.Errorf("-coalesce gates the open-loop admission queue; add -dist -async")
	}
	if *coalWin < 0 {
		return fmt.Errorf("-coalesce-window must be >= 0, got %d", *coalWin)
	}
	rng := rand.New(rand.NewSource(*seed))
	g0 := gen(*n, rng)
	fmt.Printf("soak: topology=%s n=%d steps=%d seed=%d dist=%v transport=%s parallel=%v batch=%d strategy=%s delete=%s bandwidth=%d spread=%v slow-frac=%v async=%v coalesce=%v\n",
		*topology, g0.NumNodes(), *steps, *seed, *useDist, *transp, *parallel, *batchK, batchStrat.Name(),
		deleter.Name(), *bandwidth, !*noSpread, *slowFrac, *async, *coalesce)

	var (
		target soakTarget
		sim    *dist.Simulation
	)
	if *useDist {
		s, err := harness.NewSimulationFor(g0, *transp)
		if err != nil {
			return err
		}
		// On wire, Close is what terminates the worker processes.
		defer s.Close()
		s.SetParallel(*parallel)
		s.SetBandwidth(*bandwidth)
		s.SetSpread(!*noSpread)
		if *slowFrac > 0 {
			slow := harness.MarkSlowNodes(s, *slowFrac)
			fmt.Printf("soak: %d slow nodes (node cap 1 word/round)\n", slow)
		}
		if *corruptP > 0 {
			// A large batch makes every audit pass examine all of a
			// processor's records, so convergence latency is a small
			// constant number of periods.
			if err := s.EnableAudit(audit.Config{Period: *auditPrd, Batch: 1 << 12}); err != nil {
				return err
			}
		}
		if *coalesce {
			s.SetCoalescing(dist.CoalesceConfig{Window: *coalWin})
		}
		sim = s
		target = distTarget{s}
	} else {
		target = engineTarget{core.NewEngine(g0)}
	}

	churn := adversary.Churn{
		InsertP:      *insertP,
		AttachK:      2,
		Preferential: true,
		Delete:       deleter,
	}
	if *async {
		dt := target.(distTarget)
		return soakAsync(dt.s, churn, rng, *steps, *asyncGap, *checkEvy, *fullCheck, *slowFrac, *corruptP, *auditPrd, *coalesce)
	}
	// In batch mode the insert-vs-burst decision is drawn by the soak
	// loop itself, so the insert branch must always insert: InsertP 1
	// keeps churn from drawing a second coin and deleting anyway.
	inserter := adversary.Churn{InsertP: 1, AttachK: 2, Preferential: true}
	nextID := graph.NodeID(1 << 20)
	alloc := func() graph.NodeID { nextID++; return nextID }

	repairMsgs := metrics.NewHistogram(0, 400, 20)
	batchWaves := metrics.NewHistogram(0, float64(*batchK)+0.25, *batchK+1)
	degRatios := metrics.NewHistogram(0, 4.25, 17)
	var cong metrics.Congestion
	var coord metrics.Coordination
	var cost checkCost
	start := time.Now()
	deletions, batches, corruptions := 0, 0, 0
	for step := 1; step <= *steps; step++ {
		if *batchK > 1 {
			if rng.Float64() < *insertP {
				op, ok := inserter.Next(target, rng, alloc)
				if !ok {
					fmt.Printf("network empty after %d steps\n", step)
					break
				}
				if err := target.Insert(op.V, op.Nbrs); err != nil {
					return fmt.Errorf("step %d: %v: %w", step, op, err)
				}
				if *slowFrac > 0 && rng.Float64() < *slowFrac {
					target.MarkSlow(op.V)
				}
			} else {
				// Burst: delete up to k nodes as one batch.
				batch := batchStrat.NextBatch(target, rng, *batchK)
				if len(batch) == 0 {
					fmt.Printf("network empty after %d steps\n", step)
					break
				}
				if err := target.DeleteBatch(batch); err != nil {
					return fmt.Errorf("step %d: delete batch %v: %w", step, batch, err)
				}
				deletions += len(batch)
				batches++
				msgs, waves := target.LastBatchCost()
				repairMsgs.Observe(float64(msgs))
				batchWaves.Observe(float64(waves))
				cong = cong.Merge(target.LastCongestion(true))
				coord = coord.Merge(target.LastCoordination(true))
			}
		} else {
			op, ok := churn.Next(target, rng, alloc)
			if !ok {
				fmt.Printf("network empty after %d steps\n", step)
				break
			}
			if op.Insert {
				if err := target.Insert(op.V, op.Nbrs); err != nil {
					return fmt.Errorf("step %d: %v: %w", step, op, err)
				}
				if *slowFrac > 0 && rng.Float64() < *slowFrac {
					target.MarkSlow(op.V)
				}
			} else {
				if err := target.Delete(op.V); err != nil {
					return fmt.Errorf("step %d: %v: %w", step, op, err)
				}
				deletions++
				repairMsgs.Observe(float64(target.LastRepairMessages()))
				cong = cong.Merge(target.LastCongestion(false))
				coord = coord.Merge(target.LastCoordination(false))
			}
		}
		if *corruptP > 0 && rng.Float64() < *corruptP {
			// The footprint mode plants a phantom in-flight repair that
			// keeps the engine busy until the audit sweep retires it —
			// the blocking calls require an idle engine, so that mode is
			// exercised by the -async campaign only.
			mode := dist.CorruptModes[rng.Intn(len(dist.CorruptModes))]
			if mode != dist.CorruptFootprint {
				if _, ok := sim.Corrupt(mode, rng); ok {
					corruptions++
					// Heal window: a later repair reading the corrupted
					// records mid-heal can do anything (the repair
					// protocol is not self-stabilizing against arbitrary
					// state — the audit layer is), so the adversary
					// yields the convergence window before moving again.
					for i := 0; i < 6*(*auditPrd); i++ {
						sim.Tick()
					}
				}
			}
		}
		if step%*checkEvy == 0 {
			check := target.ValidateDelta
			if *fullCheck {
				check = target.Validate
			}
			if *corruptP > 0 {
				// Silent corruption is invisible to the incremental check
				// and is healed in-band: pump empty rounds so the audit
				// layer converges, then assert with the full Verify.
				for i := 0; i < 6*(*auditPrd); i++ {
					sim.Tick()
				}
				check = target.Validate
			}
			ckStart := time.Now()
			if err := check(); err != nil {
				return fmt.Errorf("step %d: INVARIANT VIOLATION: %w", step, err)
			}
			cost.observe(time.Since(ckStart))
			maxRatio := checkpointDegreeRatio(target)
			degRatios.Observe(maxRatio)
			if maxRatio > 4 {
				return fmt.Errorf("step %d: degree ratio %v > 4", step, maxRatio)
			}
		}
	}
	if *corruptP > 0 {
		for i := 0; i < 6*(*auditPrd); i++ {
			sim.Tick()
		}
	}
	if err := target.Validate(); err != nil {
		return fmt.Errorf("final validation: %w", err)
	}

	fmt.Printf("\n%d steps (%d deletions", *steps, deletions)
	if *batchK > 1 {
		fmt.Printf(" in %d batches", batches)
	}
	fmt.Printf(") in %v — all invariants held\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("checkpoint validation: %s; peak RSS %.0f MB\n\n", cost.String(), peakRSSMB())
	if *useDist {
		fmt.Println("repair messages per deletion/batch:")
		fmt.Println(repairMsgs.Render(40))
	}
	if *batchK > 1 {
		fmt.Println("serialization waves per batch:")
		fmt.Println(batchWaves.Render(40))
	}
	fmt.Println("max degree ratio at checkpoints:")
	fmt.Println(degRatios.Render(40))
	if *bandwidth > 0 {
		fmt.Printf("congestion at B=%d: %d congested of %d repair rounds (%.1f%%), max edge backlog %d words, %d queued word-rounds\n",
			*bandwidth, cong.CongestionRounds, cong.Rounds, 100*cong.CongestedFrac(),
			cong.MaxEdgeBacklog, cong.QueuedWords)
	}
	if *useDist {
		fmt.Printf("in-band coordination: %d election + %d sync messages; %d election / %d sync of %d repair rounds (%.1f%% carried coordination)\n",
			coord.ElectionMessages, coord.SyncMessages, coord.ElectionRounds, coord.SyncRounds,
			coord.Rounds, 100*coord.SyncFrac())
	}
	if *corruptP > 0 {
		printAuditSummary(sim, corruptions)
	}
	return nil
}

// checkCost accumulates the wall-clock cost of checkpoint validations.
// At scale this is the number the incremental mode is about: with
// VerifyDelta plus the connectivity certificate a checkpoint costs
// O(region touched since the last check), so avg/max must stay flat as
// n grows (the EXP-SCALE table in EXPERIMENTS.md records the sweep).
type checkCost struct {
	n     int
	total time.Duration
	max   time.Duration
}

func (c *checkCost) observe(d time.Duration) {
	c.n++
	c.total += d
	if d > c.max {
		c.max = d
	}
}

func (c *checkCost) String() string {
	if c.n == 0 {
		return "no checkpoints"
	}
	avg := c.total / time.Duration(c.n)
	return fmt.Sprintf("%d checkpoints: avg %v, max %v", c.n, avg.Round(10*time.Microsecond), c.max.Round(10*time.Microsecond))
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (Linux), falling back to the Go heap's Sys figure
// where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// printAuditSummary reports the audit layer's cumulative counters and
// transport-level traffic at the end of a corruption campaign.
func printAuditSummary(s *dist.Simulation, corruptions int) {
	st := s.AuditStats()
	msgs, rounds := s.AuditTraffic()
	fmt.Printf("audit: %d corruptions injected; %d passes, %d probes, %d mismatches, %d repairs, %d deferred; %d audit messages over %d audit rounds\n",
		corruptions, st.Passes, st.Probes, st.Mismatches, st.Repairs, st.Deferred, msgs, rounds)
}

// soakAsync drives the open-loop engine: one submission per step, up
// to maxGap rounds of ticking in between, repairs pipelining freely.
// The adversary decodes its moves against the engine's live view and
// skips victims it has already submitted (their deletion is pending or
// in flight), so every submission is valid — any rejection is an
// engine bug and fails the soak. Checkpoints drain the engine first,
// then run the usual (incremental) validation.
func soakAsync(s *dist.Simulation, churn adversary.Churn, rng *rand.Rand,
	steps, maxGap, checkEvery int, fullCheck bool, slowFrac, corruptP float64, auditPeriod int, coalesce bool) error {

	nextID := graph.NodeID(1 << 20)
	alloc := func() graph.NodeID { nextID++; return nextID }
	view := distTarget{s}
	adv := adversary.OpenLoop{Churn: churn, MaxGap: maxGap}

	var pipe metrics.Pipeline
	latencies := metrics.NewHistogram(0, 400, 20)
	degRatios := metrics.NewHistogram(0, 4.25, 17)
	outstanding := make(map[graph.NodeID]struct{}) // submitted, not yet completed
	var cost checkCost
	start := time.Now()
	deletions, corruptions := 0, 0

	// runCounted advances up to max rounds, counting each and sampling
	// the in-flight depth per round — admissions triggered by mid-drain
	// completions can raise the depth between submissions.
	runCounted := func(max int) {
		for r := 0; r < max && !s.Idle(); r++ {
			s.Tick()
			pipe.Rounds++
			pipe.ObserveInFlight(s.InFlight())
		}
	}

	drainEvents := func() error {
		for _, ev := range s.Poll() {
			switch ev.Kind {
			case dist.EventRepairDone, dist.EventInsertApplied:
				delete(outstanding, ev.V)
				pipe.ObserveLatency(ev.Latency)
				latencies.Observe(float64(ev.Latency))
			case dist.EventOpCancelled:
				// A coalesced insert/delete pair: both ops name the same
				// node and neither will complete. No latency sample — the
				// work never went to the wire, which is the point.
				delete(outstanding, ev.V)
			case dist.EventOpRejected:
				return fmt.Errorf("engine rejected %v: %w", ev.Op, ev.Err)
			}
		}
		return nil
	}

	for step := 1; step <= steps; step++ {
		// Decode a timed move whose participants are not already pending.
		var op adversary.Op
		gap := 0
		ok := false
		for attempt := 0; attempt < 8; attempt++ {
			cand, more := adv.Next(view, rng, alloc)
			if !more {
				break
			}
			clean := true
			if _, dup := outstanding[cand.Op.V]; dup {
				clean = false
			}
			for _, x := range cand.Op.Nbrs {
				if _, dup := outstanding[x]; dup {
					clean = false
				}
			}
			if clean {
				op, gap, ok = cand.Op, cand.Gap, true
				break
			}
		}
		if !ok {
			// Nothing submittable right now: let the network advance.
			runCounted(1)
			if err := drainEvents(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			continue
		}
		var dop dist.Op
		if op.Insert {
			dop = dist.Op{Kind: dist.OpInsert, V: op.V, Nbrs: op.Nbrs}
		} else {
			dop = dist.Op{Kind: dist.OpDelete, V: op.V}
			deletions++
		}
		if err := s.Submit(dop); err != nil {
			return fmt.Errorf("step %d: submit %v: %w", step, op, err)
		}
		outstanding[op.V] = struct{}{}
		pipe.Submitted++
		pipe.ObserveInFlight(s.InFlight())
		if coalesce && op.Insert && rng.Float64() < 0.35 {
			// Flap bait: the node leaves right after joining — classic
			// membership churn, and exactly the pair the admission queue
			// exists to annihilate. (The adversary's own moves never
			// target an outstanding node, so without this bias the
			// cancel path would go unexercised.)
			if err := s.Submit(dist.Op{Kind: dist.OpDelete, V: op.V}); err != nil {
				return fmt.Errorf("step %d: flap delete %d: %w", step, op.V, err)
			}
			deletions++
			pipe.Submitted++
		}
		if op.Insert && slowFrac > 0 && rng.Float64() < slowFrac {
			// The node cap is registered up front; it bites as soon as
			// the (possibly deferred) insert applies.
			s.SetNodeBandwidth(op.V, 1)
		}
		runCounted(gap)
		if err := drainEvents(); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if corruptP > 0 && rng.Float64() < corruptP {
			// Mid-churn injection: repairs may be in flight; Corrupt
			// itself steers clear of their footprints (pending regions
			// are RT-closed, so nothing already submitted can read the
			// perturbed records). The heal pump gives the audit its
			// convergence window before the next submission — in-flight
			// repairs keep draining underneath it.
			mode := dist.CorruptModes[rng.Intn(len(dist.CorruptModes))]
			if _, ok := s.Corrupt(mode, rng); ok {
				corruptions++
				for i := 0; i < 6*auditPeriod; i++ {
					s.Tick()
				}
				if err := drainEvents(); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
			}
		}

		if step%checkEvery == 0 {
			runCounted(1 << 22)
			if !s.Idle() {
				return fmt.Errorf("step %d: engine failed to drain for checkpoint (pending %d, inflight %d)", step, s.PendingOps(), s.InFlight())
			}
			if err := drainEvents(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			check := s.VerifyDelta
			if fullCheck {
				check = func(int) error { return s.Verify() }
			}
			if corruptP > 0 {
				// Pump empty rounds so the audit layer converges on any
				// outstanding corruption, then assert with the full check.
				for i := 0; i < 6*auditPeriod; i++ {
					s.Tick()
				}
				check = func(int) error { return s.Verify() }
			}
			ckStart := time.Now()
			if err := check(8); err != nil {
				return fmt.Errorf("step %d: INVARIANT VIOLATION: %w", step, err)
			}
			cost.observe(time.Since(ckStart))
			// Incrementally maintained max ratio: the last O(n) sweep
			// (plus two graph clones) is gone from the checkpoint loop.
			maxRatio, _ := s.MaxDegreeRatio()
			degRatios.Observe(maxRatio)
			if maxRatio > 4 {
				return fmt.Errorf("step %d: degree ratio %v > 4", step, maxRatio)
			}
		}
	}
	// The tail drain counts its rounds too — throughput is ops over
	// EVERY round the campaign consumed, backlog drain included.
	runCounted(1 << 22)
	if !s.Idle() {
		return fmt.Errorf("final drain: engine failed to drain")
	}
	if err := drainEvents(); err != nil {
		return fmt.Errorf("final: %w", err)
	}
	if corruptP > 0 {
		for i := 0; i < 6*auditPeriod; i++ {
			s.Tick()
		}
	}
	if err := s.Verify(); err != nil {
		return fmt.Errorf("final validation: %w", err)
	}

	fmt.Printf("\n%d steps (%d deletions) open-loop in %v — all invariants held\n",
		steps, deletions, time.Since(start).Round(time.Millisecond))
	fmt.Printf("checkpoint validation: %s; peak RSS %.0f MB\n\n", cost.String(), peakRSSMB())
	lat := pipe.Latency()
	fmt.Printf("pipeline: %d ops over %d rounds (%.3f ops/round), peak %d repairs in flight\n",
		pipe.Completed, pipe.Rounds, pipe.Throughput(), pipe.PeakInFlight)
	fmt.Printf("completion latency: mean %.1f p50 %.0f p95 %.0f max %.0f rounds\n",
		lat.Mean, lat.P50, lat.P95, lat.Max)
	fmt.Println("completion latency distribution (rounds):")
	fmt.Println(latencies.Render(40))
	fmt.Println("max degree ratio at checkpoints:")
	fmt.Println(degRatios.Render(40))
	if coalesce {
		st := s.CoalesceStats()
		co := metrics.Coalesce{}.Add(st.Submitted, st.Cancelled, st.Merged, st.Admitted, st.MessagesSaved)
		fmt.Printf("coalescing: %d submitted, %d cancelled (%.1f%%), %d merged, %d admitted; >= %d protocol messages never sent\n",
			co.Submitted, co.Cancelled, 100*co.CancelledFrac(), co.Merged, co.Admitted, co.MessagesSaved)
	}
	if corruptP > 0 {
		printAuditSummary(s, corruptions)
	}
	return nil
}

// soakTarget abstracts the two implementations for the soak loop; it
// also satisfies adversary.View.
type soakTarget interface {
	adversary.View
	Insert(v graph.NodeID, nbrs []graph.NodeID) error
	Delete(v graph.NodeID) error
	DeleteBatch(vs []graph.NodeID) error
	Validate() error
	// ValidateDelta is the incremental checkpoint validation: only the
	// state touched since the last validation (full falls back where no
	// incremental mode exists).
	ValidateDelta() error
	// MarkSlow clamps one node's links to 1 word/round (no-op for the
	// engine, which has no network).
	MarkSlow(v graph.NodeID)
	LastRepairMessages() int
	// LastBatchCost returns the messages and serialization waves of the
	// most recent batch.
	LastBatchCost() (msgs, waves int)
	// LastCongestion returns the congestion counters of the most recent
	// batch (batch true) or single deletion (batch false); zero for the
	// engine and under unlimited bandwidth.
	LastCongestion(batch bool) metrics.Congestion
	// LastCoordination returns the in-band coordination counters
	// (election/sync rounds and messages) the same way; zero for the
	// engine, which has no protocol.
	LastCoordination(batch bool) metrics.Coordination
}

// checkpointDegreeRatio reads the maximum physical/G′ degree ratio:
// O(1) amortized from the incremental tracker when the target exposes
// one (dist), falling back to the O(n) metrics.Degrees sweep (engine).
func checkpointDegreeRatio(target soakTarget) float64 {
	if tr, ok := target.(interface {
		MaxDegreeRatio() (float64, graph.NodeID)
	}); ok {
		r, _ := tr.MaxDegreeRatio()
		return r
	}
	return metrics.Degrees(target.Network(), target.GPrime(), target.LiveNodes()).Max
}

type engineTarget struct{ e *core.Engine }

func (t engineTarget) LiveNodes() []graph.NodeID { return t.e.LiveNodes() }
func (t engineTarget) Network() *graph.Graph     { return t.e.Physical() }
func (t engineTarget) GPrime() *graph.Graph      { return t.e.GPrime() }
func (t engineTarget) Insert(v graph.NodeID, nbrs []graph.NodeID) error {
	return t.e.Insert(v, nbrs)
}
func (t engineTarget) Delete(v graph.NodeID) error         { return t.e.Delete(v) }
func (t engineTarget) DeleteBatch(vs []graph.NodeID) error { return t.e.DeleteBatch(vs) }
func (t engineTarget) Validate() error                     { return t.e.CheckInvariants() }
func (t engineTarget) ValidateDelta() error                { return t.e.CheckInvariants() }
func (t engineTarget) MarkSlow(graph.NodeID)               {}
func (t engineTarget) LastRepairMessages() int             { return 0 }
func (t engineTarget) LastBatchCost() (int, int)           { return 0, t.e.LastBatchRepair().Batch }
func (t engineTarget) LastCongestion(bool) metrics.Congestion {
	return metrics.Congestion{}
}

func (t engineTarget) LastCoordination(bool) metrics.Coordination {
	return metrics.Coordination{}
}

type distTarget struct{ s *dist.Simulation }

func (t distTarget) LiveNodes() []graph.NodeID { return t.s.LiveNodes() }
func (t distTarget) Network() *graph.Graph     { return t.s.Physical() }
func (t distTarget) GPrime() *graph.Graph      { return t.s.GPrime() }
func (t distTarget) Insert(v graph.NodeID, nbrs []graph.NodeID) error {
	return t.s.Insert(v, nbrs)
}
func (t distTarget) Delete(v graph.NodeID) error         { return t.s.Delete(v) }
func (t distTarget) DeleteBatch(vs []graph.NodeID) error { return t.s.DeleteBatch(vs) }
func (t distTarget) Validate() error                     { return t.s.Verify() }
func (t distTarget) ValidateDelta() error                { return t.s.VerifyDelta(8) }
func (t distTarget) MarkSlow(v graph.NodeID)             { t.s.SetNodeBandwidth(v, 1) }

// EdgeCapacity makes distTarget an adversary.CapacityView, so the
// slow-link deletion strategy can aim at the narrowest links.
func (t distTarget) EdgeCapacity(from, to graph.NodeID) int {
	return t.s.EdgeCapacity(from, to)
}

// StubCount / StubAt make distTarget an adversary.StubView, so
// preferential-attachment churn samples the simulation's incremental
// stub index in O(log n) instead of materializing the O(n+m) stub
// slice per insert.
func (t distTarget) StubCount() int            { return t.s.StubCount() }
func (t distTarget) StubAt(i int) graph.NodeID { return t.s.StubAt(i) }

// MaxDegreeRatio forwards the incremental degree tracker, sparing the
// checkpoint loop the O(n) metrics.Degrees sweep.
func (t distTarget) MaxDegreeRatio() (float64, graph.NodeID) { return t.s.MaxDegreeRatio() }
func (t distTarget) LastRepairMessages() int                 { return t.s.LastRecovery().Messages }
func (t distTarget) LastBatchCost() (int, int) {
	bs := t.s.LastBatch()
	return bs.Messages, bs.Waves
}
func (t distTarget) LastCongestion(batch bool) metrics.Congestion {
	var c metrics.Congestion
	if batch {
		bs := t.s.LastBatch()
		return c.Add(bs.QueuedWords, bs.MaxEdgeBacklog, bs.CongestionRounds, bs.Rounds)
	}
	rs := t.s.LastRecovery()
	return c.Add(rs.QueuedWords, rs.MaxEdgeBacklog, rs.CongestionRounds, rs.Rounds)
}

func (t distTarget) LastCoordination(batch bool) metrics.Coordination {
	var c metrics.Coordination
	if batch {
		bs := t.s.LastBatch()
		return c.Add(bs.ElectionRounds, bs.SyncRounds, bs.ElectionMessages, bs.SyncMessages, bs.Rounds)
	}
	rs := t.s.LastRecovery()
	return c.Add(rs.ElectionRounds, rs.SyncRounds, rs.ElectionMessages, rs.SyncMessages, rs.Rounds)
}
