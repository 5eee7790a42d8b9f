package dist

import "slices"

// Incremental degree indexes, maintained at the same mutation choke
// points as the connectivity certificate (physAdd/physDel, insertNow,
// removeProcessor):
//
//   - stubIndex: a Fenwick tree over the live processors in ascending
//     ID order, weighted Degree(v)+1 in the physical network — the
//     preferential-attachment "stub list" the adversary used to
//     materialize as an O(n+m) slice per insert. StubCount/StubAt
//     reproduce that slice's indexing exactly (same node at the same
//     stub index), so a sampler drawing rng.Intn(StubCount()) picks
//     the identical neighbor the materialized list would have — the
//     fixed-seed distribution tests assert pointwise equality.
//
//   - degTracker: the maximum physical/G′ degree ratio over live
//     processors, the quantity metrics.Degrees sweeps O(n) for at
//     every soak checkpoint. A lazy max-heap with per-node stamps:
//     each degree change pushes a fresh entry; the query pops stale
//     tops. Verify cross-checks it against the O(n) rebuild.
//
// Both indexes see handler-side edits when the physical edit logs
// drain, so the public accessors drain first (like Physical()).

// stubIndex maintains the preferential-attachment stub multiset.
// Positions are kept in ascending ID order and found by binary search.
// Insertion order is normally ascending order, since IDs are never
// reused and callers allocate them monotonically; an out-of-order
// insertion (legal through Submit, and made by region admission when
// an earlier insert stays blocked) splices into place, keeps total
// exact and marks the tree stale, and the next StubAt rebuilds it once
// in O(n) however many splices came before. Dead processors keep their
// position with weight zero, contributing nothing to the multiset,
// exactly like their absence from the materialized stub list; a live
// processor always weighs at least 1.
type stubIndex struct {
	seq    []NodeID // every processor ever registered, ascending
	weight []int    // current weight per position (0 = dead)
	tree   []int    // Fenwick tree over positions (1-based internally)
	stale  bool     // tree needs a rebuild before the next read
	total  int
}

func newStubIndex() *stubIndex {
	return &stubIndex{}
}

// find returns v's position, and whether v is a live processor.
func (si *stubIndex) find(v NodeID) (int, bool) {
	i, ok := slices.BinarySearch(si.seq, v)
	return i, ok && si.weight[i] != 0
}

// addNode registers a new processor with weight 1 (degree 0 + 1).
func (si *stubIndex) addNode(v NodeID) {
	i, ok := slices.BinarySearch(si.seq, v)
	switch {
	case ok:
		if si.weight[i] == 0 {
			si.add(i, 1)
		}
	case i == len(si.seq):
		si.seq = append(si.seq, v)
		si.weight = append(si.weight, 0)
		if !si.stale {
			// A Fenwick node appended at 1-based index j covers
			// positions (j - lowbit(j), j]; seed it with the
			// already-present weights of that range so prefix sums
			// stay correct as the tree grows.
			j := i + 1
			si.tree = append(si.tree, si.prefix(i)-si.prefix(j-j&-j))
		}
		si.add(i, 1)
	default:
		si.seq = slices.Insert(si.seq, i, v)
		si.weight = slices.Insert(si.weight, i, 1)
		si.total++
		si.stale = true
	}
}

// prefix returns the total weight of positions [0, i).
func (si *stubIndex) prefix(i int) int {
	sum := 0
	for j := i; j > 0; j -= j & -j {
		sum += si.tree[j-1]
	}
	return sum
}

// rebuild recomputes a stale Fenwick tree from the weights in O(n):
// each node adds its range sum into the next node covering it.
func (si *stubIndex) rebuild() {
	si.tree = append(si.tree[:0], si.weight...)
	for j := 1; j <= len(si.tree); j++ {
		if p := j + j&-j; p <= len(si.tree) {
			si.tree[p-1] += si.tree[j-1]
		}
	}
	si.stale = false
}

// removeNode zeroes a dead processor's weight; the position stays (the
// index never shrinks mid-run, matching sweepSeq's behavior).
func (si *stubIndex) removeNode(v NodeID) {
	if i, ok := si.find(v); ok {
		si.add(i, -si.weight[i])
	}
}

// adjust shifts a live processor's weight by delta (±1 per incident
// physical edge gained or lost).
func (si *stubIndex) adjust(v NodeID, delta int) {
	if i, ok := si.find(v); ok {
		si.add(i, delta)
	}
}

// add shifts the weight at position i, and the tree unless it is stale.
func (si *stubIndex) add(i, delta int) {
	si.weight[i] += delta
	si.total += delta
	if si.stale {
		return
	}
	for j := i + 1; j <= len(si.tree); j += j & -j {
		si.tree[j-1] += delta
	}
}

// at returns the node owning stub index k (0 ≤ k < total): the
// processor whose weight interval, in position order, contains k.
func (si *stubIndex) at(k int) NodeID {
	if si.stale {
		si.rebuild()
	}
	n := len(si.tree)
	// Largest power of two ≤ n.
	step := 1
	for step<<1 <= n {
		step <<= 1
	}
	idx := 0
	for ; step > 0; step >>= 1 {
		if idx+step <= n && si.tree[idx+step-1] <= k {
			idx += step
			k -= si.tree[idx-1]
		}
	}
	return si.seq[idx]
}

// StubCount returns the size of the preferential-attachment stub
// multiset: Σ over live processors of (physical degree + 1).
func (s *Simulation) StubCount() int {
	s.drainPhys()
	return s.stubs.total
}

// StubAt returns the owner of stub index i, indexing the multiset
// exactly as the materialized ascending stub list would: live
// processors ascending, each repeated degree+1 times.
func (s *Simulation) StubAt(i int) NodeID {
	s.drainPhys()
	return s.stubs.at(i)
}

// degEntry is one lazily-invalidated candidate for the maximum
// physical/G′ degree ratio.
type degEntry struct {
	ratio float64
	v     NodeID
	stamp uint64
}

// degTracker maintains the maximum degree-amplification ratio with a
// lazy max-heap: every degree change pushes the node's fresh ratio
// with a bumped stamp; Max pops entries whose stamp is stale or whose
// node died. Amortized O(log n) per mutation, O(1) space per pending
// update.
type degTracker struct {
	heap   []degEntry
	stamps map[NodeID]uint64
}

func newDegTracker() *degTracker {
	return &degTracker{stamps: make(map[NodeID]uint64)}
}

func (d *degTracker) push(e degEntry) {
	d.heap = append(d.heap, e)
	i := len(d.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if d.heap[p].ratio >= d.heap[i].ratio {
			break
		}
		d.heap[p], d.heap[i] = d.heap[i], d.heap[p]
		i = p
	}
}

func (d *degTracker) pop() {
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && d.heap[l].ratio > d.heap[big].ratio {
			big = l
		}
		if r < n && d.heap[r].ratio > d.heap[big].ratio {
			big = r
		}
		if big == i {
			return
		}
		d.heap[i], d.heap[big] = d.heap[big], d.heap[i]
		i = big
	}
}

// update records v's current ratio (da/dp; 0 when dp = 0, matching
// metrics.Degrees, which skips zero-G′-degree nodes from Max).
func (d *degTracker) update(v NodeID, da, dp int) {
	st := d.stamps[v] + 1
	d.stamps[v] = st
	if dp <= 0 {
		return // never a Max candidate; the stamp bump retires old entries
	}
	d.push(degEntry{ratio: float64(da) / float64(dp), v: v, stamp: st})
}

// remove retires a dead processor's entries.
func (d *degTracker) remove(v NodeID) {
	delete(d.stamps, v)
}

// max returns the current maximum ratio and the node attaining it
// (0, noNode on an empty network). alive filters dead nodes' stale
// entries.
func (d *degTracker) max(stampOK func(v NodeID, stamp uint64) bool) (float64, NodeID) {
	for len(d.heap) > 0 {
		top := d.heap[0]
		if stampOK(top.v, top.stamp) {
			return top.ratio, top.v
		}
		d.pop()
	}
	return 0, noNode
}

// degChanged refreshes v's entry in the degree tracker from the
// maintained graphs. Called wherever v's physical or G′ degree moves;
// dead or unknown nodes are ignored (their entries are lazily retired).
func (s *Simulation) degChanged(v NodeID) {
	if _, live := s.alive[v]; !live {
		return
	}
	s.degs.update(v, s.phys.Degree(v), s.gprime.Degree(v))
}

// MaxDegreeRatio returns the maximum physical/G′ degree ratio over
// live processors and the node attaining it — the metrics.Degrees Max
// the soak checkpoints used to recompute with an O(n) sweep (plus two
// O(n) graph clones). Maintained incrementally; cost is amortized
// O(stale entries) per call.
func (s *Simulation) MaxDegreeRatio() (float64, NodeID) {
	s.drainPhys()
	return s.degs.max(func(v NodeID, stamp uint64) bool {
		if _, live := s.alive[v]; !live {
			return false
		}
		return s.degs.stamps[v] == stamp
	})
}
