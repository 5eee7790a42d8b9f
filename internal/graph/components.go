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
// union two label roots (O(α)). Edge deletions are deferred: the
// O(1) update only checks that the endpoints share a label and records
// them; Settle later reconciles every recorded deletion at once with one
// interleaved multi-source search per touched class (see Settle). Every
// query settles first, so callers always see the exact partition; a
// caller that settles at its own quiescent points (after a repair has
// re-linked the deleted node's neighbours) pays for searches on a
// healed graph, where they meet after about one expansion. The search
// scratch (generation-stamped visited maps and reusable queues) is
// retained across calls, so steady-state updates allocate nothing.
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
	g      *Graph
	comp   map[NodeID]int64 // node -> label
	parent map[int64]int64  // label union-find; absent entry = self-root
	size   map[int64]int    // root label -> nodes of g carrying it
	next   int64            // last label handed out
	count  int              // number of label classes with a node in g

	marked      map[NodeID]struct{} // marked nodes
	markedCnt   map[int64]int       // root label -> marked nodes in component
	markedComps int                 // components with >= 1 marked node

	// damaged is set when an update observes a state that cannot occur
	// under correct maintenance (e.g. removing an edge whose endpoints
	// already carry different labels). It is sticky until Relabel.
	damaged bool

	// pend holds the endpoints of the edge removals recorded since the
	// last Settle, each once: visitB[v] == genB marks v as recorded.
	pend []NodeID

	// Search scratch, retained across calls: visitA stamps search
	// ownership (genA), queueA is the search queue, queueB collects a
	// split-off side, seeds holds one class's searches.
	visitA, visitB map[NodeID]uint64
	genA, genB     uint64
	queueA, queueB []NodeID
	seeds          []seed
}

// seed is one search of a Settle: its start node and class root, plus
// its slot in the class's union-find over searches (up) and, at a
// group root, the group's queued-but-unexpanded node count (open).
type seed struct {
	root     int64
	v        NodeID
	up, open int32
}

// NewComponents builds the certificate for the current state of g by a
// full BFS labeling. g is observed, not owned: the caller must report
// every subsequent mutation through the On* methods.
func NewComponents(g *Graph) *Components {
	c := &Components{
		g:         g,
		comp:      make(map[NodeID]int64, g.NumNodes()),
		parent:    make(map[int64]int64),
		size:      make(map[int64]int),
		marked:    make(map[NodeID]struct{}),
		markedCnt: make(map[int64]int),
		visitA:    make(map[NodeID]uint64),
		visitB:    make(map[NodeID]uint64),
		genB:      1,
	}
	c.relabel()
	return c
}

// fresh returns a never-used label (a self-root: no parent entry).
func (c *Components) fresh() int64 {
	c.next++
	return c.next
}

// find returns the root of a label with path compression. Labels with
// no parent entry are their own root, so fresh labels cost nothing.
func (c *Components) find(l int64) int64 {
	r := l
	for {
		p, ok := c.parent[r]
		if !ok || p == r {
			break
		}
		r = p
	}
	for l != r {
		p := c.parent[l]
		c.parent[l] = r
		l = p
	}
	return r
}

// rootOf returns the component root of node v, creating a singleton
// component defensively if v was never registered.
func (c *Components) rootOf(v NodeID) int64 {
	l, ok := c.comp[v]
	if !ok {
		l = c.fresh()
		c.comp[v] = l
		c.size[l] = 1
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
	lu, ok := c.comp[u]
	if !ok {
		return false
	}
	lv, ok := c.comp[v]
	if !ok {
		return false
	}
	return c.find(lu) == c.find(lv)
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

// OnAddNode registers a new isolated vertex as its own component.
func (c *Components) OnAddNode(v NodeID) {
	if _, ok := c.comp[v]; ok {
		return
	}
	f := c.fresh()
	c.comp[v] = f
	c.size[f] = 1
	c.count++
}

// OnRemoveNode unregisters a vertex. The caller must have removed its
// incident edges first (reporting each via OnRemoveEdge). Its label is
// left in the union-find: with splits deferred, other nodes of its
// class may still reach their root through it. A class whose last node
// leaves stops counting at once, so the record only ever holds edge
// endpoints.
func (c *Components) OnRemoveNode(v NodeID) {
	l, ok := c.comp[v]
	if !ok {
		return
	}
	c.Unmark(v)
	r := c.find(l)
	delete(c.comp, v)
	if c.size[r]--; c.size[r] == 0 {
		delete(c.size, r)
		c.count--
	}
	// Labels outlive their nodes, so flatten the forest (every node
	// straight to its root) once it holds more entries than nodes —
	// O(n) per Θ(n) unions, keeping the map bounded by the node count.
	if len(c.parent) > len(c.comp) {
		for w, lw := range c.comp {
			c.comp[w] = c.find(lw)
		}
		clear(c.parent)
	}
}

// OnAddEdge merges the endpoints' components (union of the label
// roots). Call it only after g.AddEdge reported a new edge.
func (c *Components) OnAddEdge(u, v NodeID) {
	ru, rv := c.rootOf(u), c.rootOf(v)
	if ru == rv {
		return
	}
	if ru > rv {
		ru, rv = rv, ru
	}
	c.parent[rv] = ru
	c.size[ru] += c.size[rv]
	delete(c.size, rv)
	if mv := c.markedCnt[rv]; mv > 0 {
		if c.markedCnt[ru] > 0 {
			c.markedComps--
		}
		c.markedCnt[ru] += mv
		delete(c.markedCnt, rv)
	}
	c.count--
}

// OnRemoveEdge records that the edge {u, v} was removed from g. The
// endpoints must still share a label (an edge that existed joined one
// component; differing labels mean the certificate no longer matches
// the graph, which sets the damaged flag). The split check itself is
// deferred to Settle.
func (c *Components) OnRemoveEdge(u, v NodeID) {
	if c.rootOf(u) != c.rootOf(v) {
		c.damaged = true
		return
	}
	c.record(u)
	c.record(v)
}

// record adds v to the pending endpoints unless it is already there.
func (c *Components) record(v NodeID) {
	if c.visitB[v] != c.genB {
		c.visitB[v] = c.genB
		c.pend = append(c.pend, v)
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
	ss := c.seeds[:0]
	for _, v := range c.pend {
		if l, ok := c.comp[v]; ok {
			ss = append(ss, seed{root: c.find(l), v: v})
		}
	}
	c.pend = c.pend[:0]
	c.genB++
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
}

// settleClass runs the interleaved multi-source search over one class
// (every seed in ss carries its root), splitting off each group that
// runs out while more than one remains. visitA stamps a visited node
// with base+1+i, where i is the search that reached it (groupOf maps i
// to its group); stamps at or below base are stale.
func (c *Components) settleClass(ss []seed) {
	root := ss[0].root
	base := c.genA
	c.genA += uint64(len(ss))
	q := c.queueA[:0]
	for i := range ss {
		ss[i].up, ss[i].open = int32(i), 1
		c.visitA[ss[i].v] = base + 1 + uint64(i)
		q = append(q, ss[i].v)
	}
	owner := func(w NodeID) int32 { return groupOf(ss, int32(c.visitA[w]-base-1)) }
	groups := len(ss)
	for h := 0; groups > 1; h++ {
		g := owner(q[h])
		for y := range c.g.adj[q[h]] {
			st := c.visitA[y]
			if st <= base {
				c.visitA[y] = base + 1 + uint64(g)
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
func (c *Components) splitOff(side []NodeID, oldRoot int64) {
	f := c.fresh()
	mcnt := 0
	for _, w := range side {
		c.comp[w] = f
		if _, ok := c.marked[w]; ok {
			mcnt++
		}
	}
	c.size[f] = len(side)
	c.size[oldRoot] -= len(side)
	c.count++
	if mcnt > 0 || c.markedCnt[oldRoot] > 0 {
		before := c.markedCnt[oldRoot] > 0
		c.markedCnt[oldRoot] -= mcnt
		oldHas := c.markedCnt[oldRoot] > 0
		if !oldHas {
			delete(c.markedCnt, oldRoot)
		}
		if mcnt > 0 {
			c.markedCnt[f] = mcnt
		}
		c.markedComps += b2i(oldHas) + b2i(mcnt > 0) - b2i(before)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Mark sets the mark bit on v (idempotent).
func (c *Components) Mark(v NodeID) {
	if _, ok := c.marked[v]; ok {
		return
	}
	c.marked[v] = struct{}{}
	r := c.rootOf(v)
	c.markedCnt[r]++
	if c.markedCnt[r] == 1 {
		c.markedComps++
	}
}

// Unmark clears the mark bit on v (idempotent).
func (c *Components) Unmark(v NodeID) {
	if _, ok := c.marked[v]; !ok {
		return
	}
	delete(c.marked, v)
	r := c.rootOf(v)
	c.markedCnt[r]--
	if c.markedCnt[r] == 0 {
		delete(c.markedCnt, r)
		c.markedComps--
	}
}

// ForgeLabel is a fault-injection hook: it silently assigns v a fresh
// label with no count or mark bookkeeping, returning the bogus label.
// Used by the corruption campaign; never called in correct operation.
func (c *Components) ForgeLabel(v NodeID) int64 {
	c.Settle()
	f := c.fresh()
	c.comp[v] = f
	return f
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
	clear(c.comp)
	clear(c.parent)
	clear(c.size)
	clear(c.markedCnt)
	c.pend = c.pend[:0]
	c.genB++
	c.relabel()
}

// relabel performs the full BFS labeling shared by NewComponents and
// Relabel, recomputing count, size, markedCnt and markedComps.
func (c *Components) relabel() {
	c.count = 0
	c.markedComps = 0
	c.damaged = false
	c.genA++
	q := c.queueA[:0]
	for _, src := range c.g.Nodes() {
		if c.visitA[src] == c.genA {
			continue
		}
		l := c.fresh()
		c.count++
		mcnt := 0
		c.visitA[src] = c.genA
		q = append(q[:0], src)
		for i := 0; i < len(q); i++ {
			w := q[i]
			c.comp[w] = l
			if _, ok := c.marked[w]; ok {
				mcnt++
			}
			c.g.EachNeighbor(w, func(y NodeID) {
				if c.visitA[y] != c.genA {
					c.visitA[y] = c.genA
					q = append(q, y)
				}
			})
		}
		c.size[l] = len(q)
		if mcnt > 0 {
			c.markedCnt[l] = mcnt
			c.markedComps++
		}
	}
	c.queueA = q[:0]
	// Drop marks on nodes no longer in the graph.
	for v := range c.marked {
		if !c.g.HasNode(v) {
			delete(c.marked, v)
		}
	}
}

// Check settles, then recomputes the partition of g by BFS and verifies
// the certificate is a bijective relabeling of it: every node carries a
// label, nodes share a find-root exactly when they share a BFS
// component, and the cached counters match. O(n + m) — the authority
// the incremental state is audited against.
func (c *Components) Check() error {
	c.Settle()
	if c.damaged {
		return fmt.Errorf("components: damaged flag set (inconsistent update observed)")
	}
	if len(c.comp) != c.g.NumNodes() {
		return fmt.Errorf("components: %d labels for %d nodes", len(c.comp), c.g.NumNodes())
	}
	seen := make(map[NodeID]bool, c.g.NumNodes())
	certToBFS := make(map[int64]NodeID) // cert root -> BFS source (bijection check)
	comps, markedComps := 0, 0
	var q []NodeID
	for _, src := range c.g.Nodes() {
		if seen[src] {
			continue
		}
		comps++
		l, ok := c.comp[src]
		if !ok {
			return fmt.Errorf("components: node %d has no label", src)
		}
		root := c.find(l)
		if prev, dup := certToBFS[root]; dup {
			return fmt.Errorf("components: label root %d spans BFS components of %d and %d", root, prev, src)
		}
		certToBFS[root] = src
		mcnt := 0
		seen[src] = true
		q = append(q[:0], src)
		for i := 0; i < len(q); i++ {
			w := q[i]
			lw, ok := c.comp[w]
			if !ok {
				return fmt.Errorf("components: node %d has no label", w)
			}
			if c.find(lw) != root {
				return fmt.Errorf("components: node %d (root %d) disagrees with BFS component of %d (root %d)",
					w, c.find(lw), src, root)
			}
			if _, ok := c.marked[w]; ok {
				mcnt++
			}
			c.g.EachNeighbor(w, func(y NodeID) {
				if !seen[y] {
					seen[y] = true
					q = append(q, y)
				}
			})
		}
		if got := c.size[root]; got != len(q) {
			return fmt.Errorf("components: component of %d has %d nodes, counter says %d", src, len(q), got)
		}
		if got := c.markedCnt[root]; got != mcnt {
			return fmt.Errorf("components: component of %d has %d marked nodes, counter says %d", src, mcnt, got)
		}
		if mcnt > 0 {
			markedComps++
		}
	}
	if comps != c.count {
		return fmt.Errorf("components: %d components, counter says %d", comps, c.count)
	}
	if len(c.size) != comps {
		return fmt.Errorf("components: %d sized classes for %d components", len(c.size), comps)
	}
	if markedComps != c.markedComps {
		return fmt.Errorf("components: %d marked components, counter says %d", markedComps, c.markedComps)
	}
	for v := range c.marked {
		if !c.g.HasNode(v) {
			return fmt.Errorf("components: marked node %d not in graph", v)
		}
	}
	return nil
}
