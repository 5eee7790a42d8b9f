package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Components is an incrementally-maintained connected-components
// certificate over a Graph. It shadows every mutation of the underlying
// graph (the caller reports each successful AddNode/AddEdge/RemoveEdge/
// RemoveNode) and, once its deferred edge removals are settled, answers
// component queries in near-constant time:
//
//   - Same(u, v): are u and v in one component — O(α)
//   - Count(): number of components — O(1)
//   - MarkedCount(): number of components containing a marked node — O(1)
//
// The representation is a label per node plus a union–find forest over
// the labels themselves, with a node count per root. Edge insertions
// union two label roots by size (O(α)). Edge deletions are deferred:
// the O(1) update only checks that the endpoints share a label and
// records them; Settle later reconciles every recorded deletion at once
// with one interleaved multi-source search per touched class (see
// Settle). Every query settles first, so callers always see the exact
// partition; a caller that settles at its own quiescent points (after a
// repair has re-linked the deleted node's neighbours) pays for searches
// on a healed graph, where they meet after about one expansion.
//
// All state is dense. Per-node state (label, mark bit, record flag,
// search stamp) is indexed by the node's slot in the graph, so searches
// walk the graph's neighbour lists without a map lookup. Labels are
// small integers indexing the per-label state (union–find parent, node
// count, marked count); labels outlive their nodes, so once they
// outnumber the graph's nodes twice over they are renumbered (tidy).
// The search scratch is retained across calls, so steady-state updates
// allocate nothing.
//
// Marks are an orthogonal per-node bit with per-component counts; the
// Forgiving Graph driver marks the live nodes of G′ so MarkedCount
// counts components restricted to live vertices without enumerating the
// dead ones.
//
// Components is a certificate, not an authority: Check recomputes the
// partition from the graph by BFS and verifies the labels are a
// bijective relabeling of it, and Relabel rebuilds the certificate from
// the graph (the heal action when an audit detects corruption).
type Components struct {
	g *Graph

	// Per slot of g. label 0 is no label (a node never registered,
	// or a vacant slot).
	label   []int32
	marked  []bool
	pending []bool   // recorded in pend since the last Settle
	stamp   []uint64 // search ownership, see settleClass

	// Per label, index 0 unused. parent[l] == l at a root; size and
	// markedCnt are meaningful at roots only.
	parent    []int32
	size      []int32 // nodes of g carrying the root's class
	markedCnt []int32 // marked nodes in the root's class

	count       int // number of label classes with a node in g
	markedComps int // components with >= 1 marked node

	// damaged is set when an update observes a state that cannot occur
	// under correct maintenance (e.g. removing an edge whose endpoints
	// already carry different labels). It is sticky until Relabel.
	damaged bool

	// pend holds the slots of the edge-removal endpoints recorded since
	// the last Settle, each once.
	pend []int32

	// Search scratch, retained across calls: gen is the last stamp
	// handed out, queueA is the search queue, queueB collects a
	// split-off side, seeds holds one class's searches, remap is
	// tidy's renumbering.
	gen            uint64
	queueA, queueB []int32
	seeds          []seed
	remap          []int32
}

// seed is one search of a Settle: its start slot and class root, plus
// its slot in the class's union-find over searches (up) and, at a
// group root, the group's queued-but-unexpanded node count (open).
type seed struct {
	root, v  int32
	up, open int32
}

// NewComponents builds the certificate for the current state of g by a
// full BFS labeling. g is observed, not owned: the caller must report
// every subsequent mutation through the On* methods.
func NewComponents(g *Graph) *Components {
	c := &Components{g: g}
	c.relabel()
	return c
}

// extend zero-extends s to length n.
func extend[T any](s []T, n int) []T {
	return append(s, make([]T, n-len(s))...)
}

// sync extends the per-slot state to cover every slot of g.
func (c *Components) sync() {
	if n := len(c.g.ids); len(c.label) < n {
		c.label = extend(c.label, n)
		c.marked = extend(c.marked, n)
		c.pending = extend(c.pending, n)
		c.stamp = extend(c.stamp, n)
	}
}

// at returns v's slot in g, if v is present.
func (c *Components) at(v NodeID) (int32, bool) {
	c.sync()
	return c.g.slot(v)
}

// fresh returns a never-used root label for a class of size nodes.
func (c *Components) fresh(size int32) int32 {
	l := int32(len(c.parent))
	c.parent = append(c.parent, l)
	c.size = append(c.size, size)
	c.markedCnt = append(c.markedCnt, 0)
	return l
}

// find returns the root of a label, halving the path as it goes.
func (c *Components) find(l int32) int32 {
	p := c.parent
	for p[l] != l {
		p[l] = p[p[l]]
		l = p[l]
	}
	return l
}

// rootOf returns the component root of the node in slot s, creating a
// singleton component defensively if it was never registered.
func (c *Components) rootOf(s int32) int32 {
	l := c.label[s]
	if l == 0 {
		l = c.fresh(1)
		c.label[s] = l
		c.count++
		return l
	}
	return c.find(l)
}

// Count returns the number of connected components.
func (c *Components) Count() int {
	c.Settle()
	return c.count
}

// MarkedCount returns the number of components containing at least one
// marked node.
func (c *Components) MarkedCount() int {
	c.Settle()
	return c.markedComps
}

// Same reports whether u and v carry labels in the same component.
func (c *Components) Same(u, v NodeID) bool {
	c.Settle()
	su, ok := c.at(u)
	if !ok {
		return false
	}
	sv, ok := c.g.slot(v)
	if !ok {
		return false
	}
	lu, lv := c.label[su], c.label[sv]
	return lu != 0 && lv != 0 && (lu == lv || c.find(lu) == c.find(lv))
}

// CrossingNeighbor returns a neighbour x of u in the graph for which
// Same(u, x) is false, if there is one: the local consistency check of
// the labels around u. It settles once and finds u's root once, however
// many neighbours u has.
func (c *Components) CrossingNeighbor(u NodeID) (NodeID, bool) {
	c.Settle()
	s, ok := c.at(u)
	if !ok {
		return 0, false
	}
	if x, ok := c.crossingAt(s); ok {
		return c.g.ids[x], true
	}
	return 0, false
}

// crossingAt returns the slot of a neighbour of the node in slot s
// whose label has another root than the node's, if there is one.
func (c *Components) crossingAt(s int32) (int32, bool) {
	adj := c.g.adj[s]
	if len(adj) == 0 {
		return 0, false
	}
	lu := c.label[s]
	if lu == 0 {
		return adj[0].to, true
	}
	ru := c.find(lu)
	for _, h := range adj {
		if l := c.label[h.to]; l != lu && (l == 0 || c.find(l) != ru) {
			return h.to, true
		}
	}
	return 0, false
}

// SweepLabels is the round-robin form of CrossingNeighbor: it
// label-checks the next ceil(slots/period) slots of the graph, from
// slot from on and wrapping at the end of the slot array, and returns
// the slot to resume from. Any period consecutive calls therefore
// check every slot, wherever they start. Only occupied slots are
// checked, and with marked set only those of marked nodes. It stops at
// the first node found with a crossing neighbour and reports whether
// it found one.
func (c *Components) SweepLabels(from, period int, marked bool) (next int, crossed bool) {
	c.Settle()
	c.sync()
	n := len(c.g.ids)
	if n == 0 {
		return 0, false
	}
	s := from
	for k := (n + period - 1) / period; k > 0; k-- {
		if s >= n {
			s = 0
		}
		if c.g.live[s] && (!marked || c.marked[s]) {
			if _, bad := c.crossingAt(int32(s)); bad {
				return s + 1, true
			}
		}
		s++
	}
	return s, false
}

// Damaged reports whether an update observed an impossible state (a
// symptom of external corruption). Sticky until Relabel.
func (c *Components) Damaged() bool {
	c.Settle()
	return c.damaged
}

// Unsettled returns how many edge-removal endpoints are recorded and
// not yet settled (0 when the labels are exact without a Settle).
func (c *Components) Unsettled() int { return len(c.pend) }

// OnAddNode registers a new isolated vertex as its own component. Call
// it after g.AddNode.
func (c *Components) OnAddNode(v NodeID) {
	s, ok := c.at(v)
	if !ok || c.label[s] != 0 {
		return
	}
	c.label[s] = c.fresh(1)
	c.count++
}

// OnRemoveNode unregisters a vertex. The caller must have removed its
// incident edges first (reporting each via OnRemoveEdge); it may report
// the removal before or after g.RemoveNode, as long as g gains no node
// in between (the vacated slot is found through g's index, which keeps
// it until the slot is reused). Its label is left in the union-find:
// with splits deferred, other nodes of its class may still reach their
// root through it. A class whose last node leaves stops counting at
// once, so the record only ever holds edge endpoints.
func (c *Components) OnRemoveNode(v NodeID) {
	s, ok := c.g.index[v]
	if !ok {
		return
	}
	if s < 0 {
		s = ^s
	}
	c.sync()
	l := c.label[s]
	if l == 0 {
		return
	}
	c.unmark(s)
	r := c.find(l)
	c.label[s] = 0
	if c.size[r]--; c.size[r] == 0 {
		c.count--
	}
	c.tidy()
}

// OnAddEdge merges the endpoints' components (union of the label
// roots). Call it only after g.AddEdge reported a new edge.
func (c *Components) OnAddEdge(u, v NodeID) {
	su, oku := c.at(u)
	sv, okv := c.g.slot(v)
	if !oku || !okv {
		c.damaged = true
		return
	}
	ru, rv := c.rootOf(su), c.rootOf(sv)
	if ru == rv {
		return
	}
	if c.size[ru] < c.size[rv] {
		ru, rv = rv, ru
	}
	c.parent[rv] = ru
	c.size[ru] += c.size[rv]
	c.size[rv] = 0
	if mv := c.markedCnt[rv]; mv > 0 {
		if c.markedCnt[ru] > 0 {
			c.markedComps--
		}
		c.markedCnt[ru] += mv
		c.markedCnt[rv] = 0
	}
	c.count--
}

// OnRemoveEdge records that the edge {u, v} was removed from g. The
// endpoints must still share a label (an edge that existed joined one
// component; differing labels mean the certificate no longer matches
// the graph, which sets the damaged flag). The split check itself is
// deferred to Settle.
func (c *Components) OnRemoveEdge(u, v NodeID) {
	su, oku := c.at(u)
	sv, okv := c.g.slot(v)
	if !oku || !okv || c.rootOf(su) != c.rootOf(sv) {
		c.damaged = true
		return
	}
	c.record(su)
	c.record(sv)
}

// record adds slot s to the pending endpoints unless it is already there.
func (c *Components) record(s int32) {
	if !c.pending[s] {
		c.pending[s] = true
		c.pend = append(c.pend, s)
	}
}

// Settle reconciles every edge removal recorded since the last Settle,
// after which the labels are exactly the components of g.
//
// Soundness. Between settles the labels are the components of G*: the
// current graph plus the removed nodes plus the recorded removed edges
// (unions only ever add G* edges, and a removal changes nothing in G*).
// So every class is connected in G*, and each component of the current
// graph inside a touched class contains a surviving recorded endpoint:
// unless the component is the whole class, a G* edge leaves it, and
// that edge is not in the current graph, so it is a recorded removal
// (all of a removed node's incident edges are recorded before the node
// goes). Classes with no recorded endpoint are untouched components.
//
// The search. Surviving endpoints are grouped by class root, and each
// class with two or more runs one interleaved (FIFO) multi-source BFS,
// one search per endpoint. Searches that touch each other merge in a
// small union-find; a merged group whose queued nodes all run out has
// enumerated a whole component and is split off with a fresh label;
// the class stops as soon as one group is left, and that group keeps
// the old label. A class with one surviving endpoint is one component
// by the argument above and costs nothing. On a healed graph the
// deleted node's neighbours meet after about one expansion.
//
// The search must run per class: replaying the recorded edges one at a
// time, even skipping edges whose endpoints already carry different
// labels, is unsound. With T1–e1–T3–e2–T2 and T3 split off first, the
// replay of e1 and e2 sees T1 and T2 still sharing a label and, with
// both edges now crossing labels, never separates them.
func (c *Components) Settle() {
	if len(c.pend) == 0 {
		return
	}
	c.sync()
	ss := c.seeds[:0]
	for _, s := range c.pend {
		c.pending[s] = false
		if l := c.label[s]; l != 0 {
			ss = append(ss, seed{root: c.find(l), v: s})
		}
	}
	c.pend = c.pend[:0]
	slices.SortFunc(ss, func(a, b seed) int {
		if a.root != b.root {
			return cmp.Compare(a.root, b.root)
		}
		return cmp.Compare(a.v, b.v)
	})
	for lo := 0; lo < len(ss); {
		hi := lo + 1
		for hi < len(ss) && ss[hi].root == ss[lo].root {
			hi++
		}
		if hi-lo > 1 {
			c.settleClass(ss[lo:hi])
		}
		lo = hi
	}
	c.seeds = ss[:0]
	c.tidy()
}

// settleClass runs the interleaved multi-source search over one class
// (every seed in ss carries its root), splitting off each group that
// runs out while more than one remains. stamp marks a visited slot
// with base+1+i, where i is the search that reached it (groupOf maps i
// to its group); stamps at or below base are stale.
func (c *Components) settleClass(ss []seed) {
	root := ss[0].root
	base := c.gen
	c.gen += uint64(len(ss))
	q := c.queueA[:0]
	for i := range ss {
		ss[i].up, ss[i].open = int32(i), 1
		c.stamp[ss[i].v] = base + 1 + uint64(i)
		q = append(q, ss[i].v)
	}
	owner := func(w int32) int32 { return groupOf(ss, int32(c.stamp[w]-base-1)) }
	groups := len(ss)
	for h := 0; groups > 1; h++ {
		g := owner(q[h])
		for _, e := range c.g.adj[q[h]] {
			y := e.to
			st := c.stamp[y]
			if st <= base {
				c.stamp[y] = base + 1 + uint64(g)
				ss[g].open++
				q = append(q, y)
				continue
			}
			if o := groupOf(ss, int32(st-base-1)); o != g {
				ss[o].up = g
				ss[g].open += ss[o].open
				if groups--; groups == 1 {
					break
				}
			}
		}
		if ss[g].open--; ss[g].open == 0 && groups > 1 {
			side := c.queueB[:0]
			for _, w := range q {
				if owner(w) == g {
					side = append(side, w)
				}
			}
			c.splitOff(side, root)
			c.queueB = side[:0]
			groups--
		}
	}
	c.queueA = q[:0]
}

// groupOf returns the root of search i in the class's union-find over
// searches, halving the path as it goes.
func groupOf(ss []seed, i int32) int32 {
	for ss[i].up != i {
		ss[i].up = ss[ss[i].up].up
		i = ss[i].up
	}
	return i
}

// splitOff relabels one enumerated side of a split as a fresh
// component and adjusts the counts. oldRoot is the root label the
// component carried before the split.
func (c *Components) splitOff(side []int32, oldRoot int32) {
	f := c.fresh(int32(len(side)))
	mcnt := int32(0)
	for _, w := range side {
		c.label[w] = f
		if c.marked[w] {
			mcnt++
		}
	}
	c.size[oldRoot] -= int32(len(side))
	c.count++
	if mcnt > 0 || c.markedCnt[oldRoot] > 0 {
		before := c.markedCnt[oldRoot] > 0
		c.markedCnt[oldRoot] -= mcnt
		oldHas := c.markedCnt[oldRoot] > 0
		c.markedCnt[f] = mcnt
		c.markedComps += b2i(oldHas) + b2i(mcnt > 0) - b2i(before)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tidy renumbers the labels once they outnumber g's nodes twice over
// (plus slack): labels outlive their nodes and every split mints one,
// so without it the per-label state would grow with the mutation
// history instead of the graph. Every node is pointed straight at its
// root and the roots still carried are numbered 1..k in label order,
// which never moves a root's state upwards, so it is compacted in
// place. O(slots + labels), amortized over the labels minted since the
// last renumbering. Runs only where no label is held across the call.
func (c *Components) tidy() {
	if len(c.parent) <= 2*c.g.NumNodes()+64 {
		return
	}
	remap := extend(c.remap[:0], len(c.parent))
	for s, l := range c.label {
		if l != 0 {
			r := c.find(l)
			c.label[s] = r
			remap[r] = 1
		}
	}
	k := int32(0)
	for l := range remap {
		if remap[l] != 0 {
			k++
			remap[l] = k
			c.size[k], c.markedCnt[k] = c.size[l], c.markedCnt[l]
		}
	}
	for s, l := range c.label {
		if l != 0 {
			c.label[s] = remap[l]
		}
	}
	c.parent = c.parent[:k+1]
	for l := range c.parent {
		c.parent[l] = int32(l)
	}
	c.size, c.markedCnt = c.size[:k+1], c.markedCnt[:k+1]
	c.remap = remap[:0]
}

// Mark sets the mark bit on v (idempotent). v must be in the graph.
func (c *Components) Mark(v NodeID) {
	s, ok := c.at(v)
	if !ok || c.marked[s] {
		return
	}
	c.marked[s] = true
	r := c.rootOf(s)
	if c.markedCnt[r]++; c.markedCnt[r] == 1 {
		c.markedComps++
	}
}

// Unmark clears the mark bit on v (idempotent).
func (c *Components) Unmark(v NodeID) {
	if s, ok := c.at(v); ok {
		c.unmark(s)
	}
}

func (c *Components) unmark(s int32) {
	if !c.marked[s] {
		return
	}
	c.marked[s] = false
	r := c.rootOf(s)
	if c.markedCnt[r]--; c.markedCnt[r] == 0 {
		c.markedComps--
	}
}

// ForgeLabel is a fault-injection hook: it silently assigns v a fresh
// label with no count or mark bookkeeping, returning the bogus label.
// Used by the corruption campaign; never called in correct operation.
func (c *Components) ForgeLabel(v NodeID) int64 {
	c.Settle()
	s, ok := c.at(v)
	if !ok {
		return 0
	}
	f := c.fresh(0)
	c.label[s] = f
	return int64(f)
}

// SkewCount is a fault-injection hook: it silently offsets the
// component counter and the marked-component counter by d with no
// bookkeeping. Never called in correct operation.
func (c *Components) SkewCount(d int) {
	c.Settle()
	c.count += d
	c.markedComps += d
}

// Relabel rebuilds the certificate from the graph, discarding all label
// state (pending removals included) but preserving the set of marked
// nodes (restricted to nodes still present). This is the heal action
// after detected corruption.
func (c *Components) Relabel() {
	for _, s := range c.pend {
		c.pending[s] = false
	}
	c.pend = c.pend[:0]
	c.relabel()
}

// relabel performs the full BFS labeling shared by NewComponents and
// Relabel, recomputing every label and counter. A cleared label doubles
// as the search's unvisited mark.
func (c *Components) relabel() {
	c.sync()
	clear(c.label)
	c.parent = append(c.parent[:0], 0)
	c.size = append(c.size[:0], 0)
	c.markedCnt = append(c.markedCnt[:0], 0)
	c.count, c.markedComps, c.damaged = 0, 0, false
	q := c.queueA[:0]
	for src, live := range c.g.live {
		if !live {
			c.marked[src] = false // drop marks on nodes no longer in the graph
			continue
		}
		if c.label[src] != 0 {
			continue
		}
		l := c.fresh(0)
		c.count++
		c.label[src] = l
		q = append(q[:0], int32(src))
		mcnt := int32(0)
		for i := 0; i < len(q); i++ {
			w := q[i]
			if c.marked[w] {
				mcnt++
			}
			for _, e := range c.g.adj[w] {
				if c.label[e.to] == 0 {
					c.label[e.to] = l
					q = append(q, e.to)
				}
			}
		}
		c.size[l] = int32(len(q))
		if mcnt > 0 {
			c.markedCnt[l] = mcnt
			c.markedComps++
		}
	}
	c.queueA = q[:0]
}

// Check settles, then recomputes the partition of g by BFS and verifies
// the certificate is a bijective relabeling of it: every node carries a
// label, nodes share a find-root exactly when they share a BFS
// component, and the cached counters match. O(n + m) — the authority
// the incremental state is audited against.
func (c *Components) Check() error {
	c.Settle()
	c.sync()
	if c.damaged {
		return fmt.Errorf("components: damaged flag set (inconsistent update observed)")
	}
	g := c.g
	labels := 0
	for s, l := range c.label {
		if l != 0 {
			labels++
		}
		if !g.live[s] && c.marked[s] {
			return fmt.Errorf("components: marked node %d not in graph", g.ids[s])
		}
	}
	if labels != g.NumNodes() {
		return fmt.Errorf("components: %d labels for %d nodes", labels, g.NumNodes())
	}
	seen := make([]bool, len(g.ids))
	certToBFS := make([]int32, len(c.parent)) // cert root -> BFS source slot+1 (bijection check)
	comps, markedComps := 0, 0
	var q []int32
	for src, live := range g.live {
		if !live || seen[src] {
			continue
		}
		comps++
		l := c.label[src]
		if l == 0 {
			return fmt.Errorf("components: node %d has no label", g.ids[src])
		}
		root := c.find(l)
		if prev := certToBFS[root]; prev != 0 {
			return fmt.Errorf("components: label root %d spans BFS components of %d and %d", root, g.ids[prev-1], g.ids[src])
		}
		certToBFS[root] = int32(src) + 1
		mcnt := int32(0)
		seen[src] = true
		q = append(q[:0], int32(src))
		for i := 0; i < len(q); i++ {
			w := q[i]
			lw := c.label[w]
			if lw == 0 {
				return fmt.Errorf("components: node %d has no label", g.ids[w])
			}
			if c.find(lw) != root {
				return fmt.Errorf("components: node %d (root %d) disagrees with BFS component of %d (root %d)",
					g.ids[w], c.find(lw), g.ids[src], root)
			}
			if c.marked[w] {
				mcnt++
			}
			for _, e := range g.adj[w] {
				if !seen[e.to] {
					seen[e.to] = true
					q = append(q, e.to)
				}
			}
		}
		if got := c.size[root]; int(got) != len(q) {
			return fmt.Errorf("components: component of %d has %d nodes, counter says %d", g.ids[src], len(q), got)
		}
		if got := c.markedCnt[root]; got != mcnt {
			return fmt.Errorf("components: component of %d has %d marked nodes, counter says %d", g.ids[src], mcnt, got)
		}
		if mcnt > 0 {
			markedComps++
		}
	}
	if comps != c.count {
		return fmt.Errorf("components: %d components, counter says %d", comps, c.count)
	}
	sized := 0
	for l := 1; l < len(c.parent); l++ {
		if c.parent[l] == int32(l) && c.size[l] != 0 {
			sized++
		}
	}
	if sized != comps {
		return fmt.Errorf("components: %d sized classes for %d components", sized, comps)
	}
	if markedComps != c.markedComps {
		return fmt.Errorf("components: %d marked components, counter says %d", markedComps, c.markedComps)
	}
	return nil
}
