package dist

import "fmt"

// The incremental connectivity certificate.
//
// Verify's last and most expensive obligation — live processors are
// connected in the actual network exactly when they are connected in G′
// — used to be checkable only by O(n) BFS sweeps, which made soak
// checkpoints at n ≥ 10⁵ cost more than the repairs between them. The
// certificate makes the delta pass prove the same property in O(1) from
// two incrementally maintained component trackers (graph.Components):
//
//	physCC — components of the maintained physical graph,
//	gpCC   — components of G′, with the live processors marked.
//
// Both trackers shadow every graph mutation at the mutation site
// (physAdd/physDel, insertNow, removeProcessor), riding the same edit-
// log drains the incremental physical graph uses, so keeping them
// current is O(region) per repair, not O(n) per checkpoint. Edge
// removals (only physCC sees any: G′ never loses an edge) are recorded,
// not searched: the engine settles physCC where it folds the edit logs
// at quiescence (Tick's idle branch, Drain, run). By then each repair
// has re-linked the deleted node's neighbours, so the settle's
// searches meet almost at once; any earlier read settles first.
//
// The O(1) equivalence proof combines two facts:
//
//  1. Refinement: every physical edge materializes between processors
//     already connected in G′ (asserted at physAdd time, sticky in
//     certErr). Physical components therefore refine the G′ components
//     restricted to live nodes: each physical component lies inside one
//     live-restricted G′ component.
//  2. Count equality: physCC.Count() == gpCC.MarkedCount(). A
//     refinement with equally many parts IS the partition it refines,
//     so live processors are G′-connected exactly when they are
//     physically connected.
//
// The full Verify stays authoritative: two of its global-only checks,
// which no per-processor pass can make, cross-check each tracker
// against a from-scratch BFS partition (Components.Check) and run the
// independent checkConnectivity sweep, so a certificate bug can never
// vouch for itself. The audit layer treats the certificate as
// driver state it owns: a background sweep (auditCertSweep) re-checks
// the O(1) count equality each idle tick, and per-node label
// consistency paced so that each tracker's labels are all re-checked
// within one audit period of idle ticks, and heals any detected
// corruption by rebuilding both trackers from the graphs.

// checkCertCounts is the O(1) connectivity-equivalence check: no sticky
// refinement violation, no tracker damage, and component counts equal.
func (s *Simulation) checkCertCounts() error {
	if s.certErr != nil {
		return s.certErr
	}
	if s.physCC.Damaged() {
		return fmt.Errorf("dist: certificate: physical component tracker damaged")
	}
	if s.gpCC.Damaged() {
		return fmt.Errorf("dist: certificate: G' component tracker damaged")
	}
	if pc, gc := s.physCC.Count(), s.gpCC.MarkedCount(); pc != gc {
		return fmt.Errorf("dist: certificate: %d physical components, %d live G' components", pc, gc)
	}
	return nil
}

// checkCertIncident verifies the certificate's labels are locally
// consistent around one processor: every incident physical edge joins
// same-labeled endpoints in physCC, and every incident G′ edge joins
// same-labeled endpoints in gpCC. A forged label (the CorruptCertificate
// mode) on any node with a neighbor fails here.
func (s *Simulation) checkCertIncident(p *processor) error {
	if x, ok := s.physCC.CrossingNeighbor(p.id); ok {
		return fmt.Errorf("dist: certificate: physical edge %d-%d crosses component labels", p.id, x)
	}
	if x, ok := s.gpCC.CrossingNeighbor(p.id); ok {
		return fmt.Errorf("dist: certificate: G' edge %d-%d crosses component labels", p.id, x)
	}
	return nil
}

// checkCertFull is the authoritative cross-check the full Verify runs:
// both trackers audited against from-scratch BFS partitions, plus the
// O(1) checks. O(n + m), like the rest of Verify.
func (s *Simulation) checkCertFull() error {
	if err := s.checkCertCounts(); err != nil {
		return err
	}
	if err := s.physCC.Check(); err != nil {
		return fmt.Errorf("dist: certificate (physical): %w", err)
	}
	if err := s.gpCC.Check(); err != nil {
		return fmt.Errorf("dist: certificate (G'): %w", err)
	}
	return nil
}

// auditCertSweep is the audit layer's guard over the certificate —
// driver-owned state the in-band record audit cannot see. Each idle
// tick it re-runs the O(1) count check and label-checks the next
// ceil(slots/Period) slots of each tracker from that tracker's own
// cursor: the live processors in physCC, the marked (live) nodes in
// gpCC. Every live processor's labels are so re-checked within one
// audit period of idle ticks, as often as its own audit tick fires.
// Any detection heals by rebuilding both trackers from the graphs (the
// graphs themselves are covered by the record audit), counted like the
// phantom-footprint sweep's repairs.
func (s *Simulation) auditCertSweep() {
	if !s.auditOn || len(s.alive) == 0 {
		return
	}
	period := s.auditCfg.Period
	bad := s.checkCertCounts() != nil
	if !bad {
		s.physSweep, bad = s.physCC.SweepLabels(s.physSweep, period, false)
	}
	if !bad {
		s.gpSweep, bad = s.gpCC.SweepLabels(s.gpSweep, period, true)
	}
	if bad {
		s.physCC.Relabel()
		s.gpCC.Relabel()
		s.certErr = nil
		s.audStats.Mismatches++
		s.audStats.Repairs++
	}
}

// appendSample extends a verification worklist with up to sample extra
// live processors picked by a deterministic round-robin cursor over the
// insertion-order sequence (IDs are never reused, so the order is a
// pure function of the op history — satellite of the reproducibility
// fix: map-order picks made sampled-sweep failures non-replayable).
// The picked IDs are recorded in s.lastSample (reused buffer). The
// sequence is compacted in place once more than half its entries are
// dead, keeping the scan amortized O(sample).
func (s *Simulation) appendSample(procs []*processor, sample int) []*processor {
	s.lastSample = s.lastSample[:0]
	if sample <= 0 || len(s.alive) == 0 {
		return procs
	}
	if len(s.sweepSeq) > 2*len(s.alive)+16 {
		keep := s.sweepSeq[:0]
		for _, id := range s.sweepSeq {
			if _, ok := s.alive[id]; ok {
				keep = append(keep, id)
			}
		}
		s.sweepSeq = keep
		s.sweepCur = 0
	}
	if sample > len(s.alive) {
		sample = len(s.alive)
	}
	n := len(s.sweepSeq)
	for scanned, taken := 0, 0; scanned < n && taken < sample; scanned++ {
		if s.sweepCur >= n {
			s.sweepCur = 0
		}
		id := s.sweepSeq[s.sweepCur]
		s.sweepCur++
		p, ok := s.procs[id]
		if !ok {
			continue
		}
		dup := false
		for _, q := range procs {
			if q == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		procs = append(procs, p)
		s.lastSample = append(s.lastSample, id)
		taken++
	}
	return procs
}

// LastSample returns the live processors the most recent VerifyDelta
// call opportunistically sampled, in pick order. The slice is reused by
// the next call; tests pinning cursor determinism copy it.
func (s *Simulation) LastSample() []NodeID { return s.lastSample }
