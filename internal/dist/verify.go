package dist

import (
	"fmt"

	"repro/internal/graph"
)

// Verify revalidates the entire distributed state from scratch. It
// runs the record checker VerifyDelta uses (checkRecords, see
// verify_delta.go) over every processor, sharing one set of checked
// roots so each Reconstruction Tree is rebuilt exactly once: record
// consistency, leaf characterization, valid hafts with one helper per
// internal node, representative correctness and the hard degree bound.
// Then it makes the checks only a global pass can make: the processor
// set equals the live set, the incrementally maintained physical graph
// equals a from-scratch reconstruction, the connectivity certificate
// matches from-scratch partitions, the max-degree-ratio tracker matches
// its rebuild, and live processors are connected exactly when they are
// in G′. A healthy network always returns nil.
//
// Every record is climbed from, and each step of a climb confirms the
// parent lists the child, so every record sits in the RT rebuilt from
// its root: no separate census of reachable leaves is needed. A full
// pass covers everything, so it also resets the incremental pass's
// touched set.
func (s *Simulation) Verify() error {
	s.takeTouched()
	if err := s.checkEngineFootprint(); err != nil {
		return err
	}
	if err := s.checkTransport(); err != nil {
		return err
	}
	if len(s.procs) != len(s.alive) {
		return fmt.Errorf("dist: %d processors hold records but %d nodes are alive", len(s.procs), len(s.alive))
	}
	checkedRoots := make(map[addr]struct{})
	for id, p := range s.procs {
		if _, live := s.alive[id]; !live {
			return fmt.Errorf("dist: processor %d has records but is not alive", id)
		}
		if err := s.checkRecords(p, checkedRoots); err != nil {
			return err
		}
	}
	if err := s.checkPhysIncremental(); err != nil {
		return err
	}
	// The incremental connectivity certificate audited against
	// from-scratch BFS partitions; checkConnectivity below stays the
	// independent authority the certificate itself is judged by.
	if err := s.checkCertFull(); err != nil {
		return err
	}
	// The incremental max-degree-ratio tracker (stubs.go) audited
	// against the O(n) rebuild it replaced at the soak checkpoints. The
	// ratios are computed by the identical float division, so equality
	// is exact (ties may be attained by different nodes).
	wantMax := 0.0
	for v := range s.alive {
		if dp := s.gprime.Degree(v); dp > 0 {
			if r := float64(s.phys.Degree(v)) / float64(dp); r > wantMax {
				wantMax = r
			}
		}
	}
	if gotMax, at := s.MaxDegreeRatio(); gotMax != wantMax {
		return fmt.Errorf("dist: degree tracker: incremental max ratio %v (node %d), rebuild %v", gotMax, at, wantMax)
	}
	return s.checkConnectivity(s.phys)
}

// checkEngineFootprint checks the open-loop engine's admission state.
// The claim table must equal the union of the in-flight regions, each
// processor mapped to its own repair's epoch. And an in-flight repair
// epoch that no processor holds scratch for — while the network is
// quiet, so nothing carrying the epoch is in transit — is phantom: it
// can never complete in-band. The phantom check is skipped while
// traffic is pending: a freshly launched repair's scratch may still be
// in its notification messages.
func (s *Simulation) checkEngineFootprint() error {
	claimed := 0
	for e, fl := range s.inflight {
		for _, x := range fl.region {
			if c, ok := s.claims[x]; !ok || c != e {
				return fmt.Errorf("dist: claim table: processor %d of in-flight epoch %d's region is not claimed by it", x, e)
			}
		}
		claimed += len(fl.region)
	}
	if len(s.claims) != claimed {
		return fmt.Errorf("dist: claim table holds %d processors, in-flight regions %d", len(s.claims), claimed)
	}
	if !s.netQuiet() {
		return nil
	}
	for _, e := range s.phantomEpochs() {
		return fmt.Errorf("dist: phantom in-flight repair epoch %d: no processor holds scratch for it", e)
	}
	return nil
}

// checkTransport runs the backend's own state validation when it has
// one (channet: logical-clock sanity and timer ownership; wirenet:
// reliability-state invariants).
func (s *Simulation) checkTransport() error {
	if v, ok := netAs[interface{ Validate() error }](s.net); ok {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("dist: transport: %w", err)
		}
	}
	return nil
}

// checkConnectivity verifies that live processors are connected in the
// physical network exactly when they are connected in G′.
func (s *Simulation) checkConnectivity(phys *graph.Graph) error {
	live := s.LiveNodes()
	seen := make(map[NodeID]struct{})
	for _, src := range live {
		if _, done := seen[src]; done {
			continue
		}
		gp := s.gprime.BFS(src)
		ph := phys.BFS(src)
		for _, v := range live {
			_, inPrime := gp[v]
			_, inPhys := ph[v]
			if inPrime != inPhys {
				return fmt.Errorf("dist: connectivity: %d~%d is %v in G' but %v in actual network",
					src, v, inPrime, inPhys)
			}
			if inPhys {
				seen[v] = struct{}{}
			}
		}
	}
	return nil
}
