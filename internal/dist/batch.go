package dist

import (
	"fmt"
	"sort"
)

// Batched concurrent deletions.
//
// The paper repairs one deletion at a time; under churn they arrive in
// bursts. The reference semantics of a burst is core.Engine.DeleteBatch:
// apply the deletions one at a time in canonical (ascending-ID) order.
// DeleteBatch hands the burst to the open-loop engine's region
// admission in exactly that order, as if each member had been
// submitted on its own, and drains the engine. Admission launches a
// member the moment its footprint (deleteRegion) is disjoint from every
// in-flight repair and every earlier member still waiting, so repairs
// of independent damaged regions overlap — k disjoint deletions heal in
// roughly the rounds of one — while colliding members serialize behind
// the older one, handed off leader-to-leader, exactly as the canonical
// order demands. The differential tests assert the healed graphs match
// the reference.
//
// Groups, Waves and Conflicts describe the batch's footprints at the
// call: two members conflict when their footprints overlap. Footprints
// are processor-granular, so two members sharing a physical neighbour
// serialize even when their repairs would touch disjoint records.

// BatchStats reports the measured cost of one DeleteBatch call.
type BatchStats struct {
	// Batch is the number of deletions; Conflicts the number of member
	// pairs whose footprints overlap at the call; Groups the connected
	// components of that overlap relation; Waves its longest ascending
	// chain of overlapping members. Admission can serialize deeper than
	// Waves, because earlier repairs may grow later members' footprints.
	Batch     int
	Groups    int
	Waves     int
	Conflicts int
	// Deprecated: always zero. It counted the messages of the in-band
	// claim phase that region admission replaced; admission decides
	// driver-side and sends none.
	ClaimMessages int
	// Deprecated: always zero, like ClaimMessages.
	ClaimRounds int
	// Messages, Rounds, TotalWords, MaxWords and MaxSentByNode cover
	// the whole batch.
	Messages      int
	Rounds        int
	TotalWords    int
	MaxWords      int
	MaxSentByNode int
	// QueuedWords, MaxEdgeBacklog and CongestionRounds mirror the
	// simulator's congestion counters over the whole batch (zero under
	// unlimited bandwidth).
	QueuedWords      int
	MaxEdgeBacklog   int
	CongestionRounds int
	// ElectionRounds / SyncRounds and the corresponding message counts
	// expose the batch's in-band coordination cost: leader-election
	// tournaments and termination-detection traffic across every wave.
	ElectionRounds   int
	SyncRounds       int
	ElectionMessages int
	SyncMessages     int
}

// LastBatch returns the cost of the most recent DeleteBatch call.
func (s *Simulation) LastBatch() BatchStats { return s.lastBatch }

// DeleteBatch removes every listed processor and repairs the damage,
// overlapping the repairs of independent regions. It is behaviorally
// equivalent to deleting the nodes one at a time in ascending order; a
// batch of one is exactly Delete. Validation is atomic: either the
// whole batch is applied or no node is touched. Every member reports
// one EventRepairDone with Seq 0 and the call one EventBatchDone;
// members take no Submit sequence number and are never held or merged
// by the coalescing queue.
func (s *Simulation) DeleteBatch(vs []NodeID) error {
	if err := s.requireIdle("delete batch"); err != nil {
		return err
	}
	batch, err := s.validateBatch(vs)
	if err != nil {
		return err
	}
	defer s.beginBlocking()()
	bs := BatchStats{Batch: len(batch), Groups: 1, Waves: 1}
	switch len(batch) {
	case 0:
		s.lastBatch = BatchStats{}
		return nil
	case 1:
		if err := s.Delete(batch[0]); err != nil {
			return err
		}
	default:
		s.net.ResetStats()
		var regions [][]NodeID
		regions, bs.Groups, bs.Waves, bs.Conflicts = s.batchShape(batch)
		for i, v := range batch {
			s.pending = append(s.pending, &pendingOp{
				op: Op{Kind: OpDelete, V: v}, submitRound: s.net.Round(), after: noNode,
				region: regions[i], regionGen: s.stateGen,
			})
		}
		s.admit()
		if err := s.Drain(); err != nil {
			return fmt.Errorf("dist: delete batch: %w", err)
		}
	}
	st := s.net.Stats()
	bs.Messages, bs.Rounds = st.Messages, st.Rounds
	bs.TotalWords, bs.MaxWords, bs.MaxSentByNode = st.TotalWords, st.MaxWords, st.MaxSentByNode
	bs.QueuedWords, bs.MaxEdgeBacklog, bs.CongestionRounds = st.QueuedWords, st.MaxEdgeBacklog, st.CongestionRounds
	bs.ElectionRounds, bs.SyncRounds = st.ElectionRounds, st.SyncRounds
	bs.ElectionMessages, bs.SyncMessages = st.ElectionMessages, st.SyncMessages
	s.lastBatch = bs
	s.emit(Event{Kind: EventBatchDone, Batch: bs})
	return nil
}

// validateBatch checks the batch atomically — every node live, no
// duplicates — and returns it in canonical ascending order.
func (s *Simulation) validateBatch(vs []NodeID) ([]NodeID, error) {
	batch := append([]NodeID(nil), vs...)
	sort.Slice(batch, func(i, j int) bool { return batch[i] < batch[j] })
	for i, v := range batch {
		if i > 0 && batch[i-1] == v {
			return nil, fmt.Errorf("dist: delete batch: duplicate node %d", v)
		}
		if !s.Alive(v) {
			return nil, fmt.Errorf("dist: delete batch: node %d is not a live node", v)
		}
	}
	return batch, nil
}

// batchShape measures how the members' footprints overlap at the call,
// in one pass over the ascending batch: the number of overlapping
// pairs, the connected components of the overlap relation (union-find),
// and its longest ascending chain. It returns the footprints too, which
// are the members' admission regions until the state next changes.
func (s *Simulation) batchShape(batch []NodeID) (regions [][]NodeID, groups, waves, conflicts int) {
	regions = make([][]NodeID, len(batch))
	depth := make([]int, len(batch))
	root := make([]int, len(batch))
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	groups = len(batch)
	for i, v := range batch {
		regions[i], depth[i], root[i] = s.deleteRegion(v), 1, i
		for j := 0; j < i; j++ {
			if !s.overlap(regions[i], regions[j]) {
				continue
			}
			conflicts++
			depth[i] = max(depth[i], depth[j]+1)
			if a, b := find(i), find(j); a != b {
				root[a] = b
				groups--
			}
		}
		waves = max(waves, depth[i])
	}
	return regions, groups, waves, conflicts
}
