package main

import (
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/graph"
)

// wave is one closed-loop step of a schedule: either ops submitted back
// to back (the driver then ticks the engine), or one blocking
// DeleteBatch issued at an idle wave boundary.
type wave struct {
	ops   []dist.Op
	batch []dist.NodeID
}

// schedule is a workload's complete op sequence for one episode.
type schedule struct {
	waves []wave
	ops   int // submitted ops plus batch members
}

// initialGraph is the powerlaw network an input starts from.
func initialGraph(seed int64, n int) *graph.Graph {
	return graph.PreferentialAttachment(n, 3, rand.New(rand.NewSource(seed)))
}

// newSchedule generates w's op schedule. It sees only the seed and the
// initial graph: every choice is made against the generator's own shadow
// of liveness and G′, never against a live simulation, so adversary
// sampling stays out of the timed window.
func newSchedule(w workload, seed int64, g0 *graph.Graph) *schedule {
	sh := newShadow(seed, g0)
	sc := &schedule{}
	for i := 0; sc.ops < w.ops; i++ {
		var wv wave
		if w.mix == flapMix && i%burstEvery == burstEvery-1 {
			wv.batch = sh.burst()
			sc.ops += len(wv.batch)
			sc.waves = append(sc.waves, wv)
			continue
		}
		for len(wv.ops) < w.wave && sc.ops+len(wv.ops) < w.ops {
			switch w.mix {
			case churnMix:
				if sh.rng.Intn(2) == 0 {
					wv.ops = append(wv.ops, sh.insert())
				} else {
					wv.ops = append(wv.ops, sh.delete(sh.victim()))
				}
			case visitorMix:
				wv.ops = sh.visitorStep(wv.ops)
			case flapMix:
				wv.ops = sh.flapStep(wv.ops, w.wave)
			}
		}
		sc.ops += len(wv.ops)
		sc.waves = append(sc.waves, wv)
	}
	return sc
}

// shadow is the schedule generator's model of the network: the live
// nodes (indexed for uniform sampling), the G′ adjacency, which only
// ever grows, and the live nodes' G′ degree strata that deletions are
// drawn from.
type shadow struct {
	rng    *rand.Rand
	live   []dist.NodeID
	pos    map[dist.NodeID]int
	adj    map[dist.NodeID][]dist.NodeID
	strata strata
	next   dist.NodeID
	n0     int

	// visitor mix: the peer the next op removes, if visiting
	visitor  dist.NodeID
	visiting bool
}

func newShadow(seed int64, g0 *graph.Graph) *shadow {
	sh := &shadow{
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)),
		pos: make(map[dist.NodeID]int, g0.NumNodes()),
		adj: make(map[dist.NodeID][]dist.NodeID, g0.NumNodes()),
	}
	sh.strata.where = make(map[dist.NodeID]slot, g0.NumNodes())
	for _, v := range g0.Nodes() {
		sh.adj[v] = g0.Neighbors(v)
		sh.add(v)
		if v >= sh.next {
			sh.next = v + 1
		}
	}
	sh.n0 = len(sh.live)
	return sh
}

func (sh *shadow) add(v dist.NodeID) {
	sh.pos[v] = len(sh.live)
	sh.live = append(sh.live, v)
	sh.strata.add(v, len(sh.adj[v]))
}

// pick is a uniformly chosen live node: where inserts attach.
func (sh *shadow) pick() dist.NodeID { return sh.live[sh.rng.Intn(len(sh.live))] }

// victim is the live node the next deletion takes: uniform within a
// degree stratum, the stratum chosen by systematic sampling so every
// stratum is hit in proportion to its population. The repair cost of a
// deletion grows with the victim's degree and powerlaw degrees are
// heavy-tailed, so plain uniform sampling would let the number of hubs
// a seed happens to delete swing every metric; stratified, every seed
// deletes the same mix of hubs and leaves.
func (sh *shadow) victim() dist.NodeID { return sh.strata.pick(sh.rng, len(sh.live)) }

// insert adds a fresh node attached to two distinct uniformly chosen
// live nodes.
func (sh *shadow) insert() dist.Op {
	a := sh.pick()
	b := sh.pick()
	for b == a {
		b = sh.pick()
	}
	v := sh.next
	sh.next++
	sh.adj[v] = []dist.NodeID{a, b}
	sh.add(v)
	for _, x := range []dist.NodeID{a, b} {
		sh.adj[x] = append(sh.adj[x], v)
		sh.strata.regrade(x, len(sh.adj[x]))
	}
	return dist.Op{Kind: dist.OpInsert, V: v, Nbrs: []dist.NodeID{a, b}}
}

func (sh *shadow) delete(v dist.NodeID) dist.Op {
	i := sh.pos[v]
	last := sh.live[len(sh.live)-1]
	sh.live[i] = last
	sh.pos[last] = i
	sh.live = sh.live[:len(sh.live)-1]
	delete(sh.pos, v)
	sh.strata.remove(v)
	return dist.Op{Kind: dist.OpDelete, V: v}
}

// smallerNeighbours are u's live G′ neighbours of degree at most u's,
// in random order: where a correlated failure starting at u spreads.
// Capping them by u's degree keeps hubs out of correlated deletions
// unless the stratified victim draw itself picked a hub.
func (sh *shadow) smallerNeighbours(u dist.NodeID) []dist.NodeID {
	var out []dist.NodeID
	for _, x := range sh.adj[u] {
		if _, ok := sh.pos[x]; ok && len(sh.adj[x]) <= len(sh.adj[u]) {
			out = append(out, x)
		}
	}
	sh.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// visitorStep appends one op of a quiet overlay's churn: a short-lived
// peer joins on two uniformly chosen live nodes, and the next op
// removes it again. Every repair is then the same small one, so the
// standing cost of the overlay, not the luck of the victim draw, sets
// the metrics.
func (sh *shadow) visitorStep(ops []dist.Op) []dist.Op {
	if sh.visiting {
		sh.visiting = false
		return append(ops, sh.delete(sh.visitor))
	}
	ins := sh.insert()
	sh.visitor, sh.visiting = ins.V, true
	return append(ops, ins)
}

// flapStep appends one unit of the flap mix: an insert-then-delete pair
// on the same node (coalescing cancels it), a delete followed by one of
// the victim's live G′ neighbours (coalescing merges the two repairs),
// or, while the network is below its initial size, a plain insert that
// keeps the population steady.
func (sh *shadow) flapStep(ops []dist.Op, wave int) []dist.Op {
	pair := len(ops)+2 <= wave
	switch {
	case pair && sh.rng.Float64() < flapShare:
		ins := sh.insert()
		return append(ops, ins, sh.delete(ins.V))
	case pair && len(sh.live) >= sh.n0:
		u := sh.victim()
		nb := sh.smallerNeighbours(u)
		ops = append(ops, sh.delete(u))
		if len(nb) > 0 {
			ops = append(ops, sh.delete(nb[0]))
		}
		return ops
	default:
		return append(ops, sh.insert())
	}
}

// burst is a correlated failure in burstSources places at once: each a
// stratified victim and one of its smaller live neighbours. One
// neighbourhood alone is a single conflict group by adjacency, which
// DeleteBatch settles without sending a claim message; several at once
// make its claim phase discover the groups in-band.
func (sh *shadow) burst() []dist.NodeID {
	var members []dist.NodeID
	for i := 0; i < burstSources; i++ {
		u := sh.victim()
		members = append(members, u)
		nb := sh.smallerNeighbours(u)
		sh.delete(u)
		if len(nb) > 0 {
			members = append(members, nb[0])
			sh.delete(nb[0])
		}
	}
	return members
}

// strata groups live nodes by G′ degree class, ⌊4·log₂ degree⌋: four
// classes per octave, so a class's members cost about the same to
// delete.
type strata struct {
	class  [][]dist.NodeID
	credit []float64
	where  map[dist.NodeID]slot
}

type slot struct{ class, i int }

func degreeClass(deg int) int { return int(4 * math.Log2(float64(max(deg, 1)))) }

func (st *strata) add(v dist.NodeID, deg int) {
	c := degreeClass(deg)
	for len(st.class) <= c {
		st.class = append(st.class, nil)
		st.credit = append(st.credit, 0)
	}
	st.where[v] = slot{c, len(st.class[c])}
	st.class[c] = append(st.class[c], v)
}

func (st *strata) remove(v dist.NodeID) {
	s := st.where[v]
	members := st.class[s.class]
	last := members[len(members)-1]
	members[s.i] = last
	st.where[last] = s
	st.class[s.class] = members[:len(members)-1]
	delete(st.where, v)
}

// regrade moves v to the class of its new degree.
func (st *strata) regrade(v dist.NodeID, deg int) {
	if _, live := st.where[v]; !live || st.where[v].class == degreeClass(deg) {
		return
	}
	st.remove(v)
	st.add(v, deg)
}

// pick draws from the class whose accumulated share of total is
// largest, uniformly within it.
func (st *strata) pick(rng *rand.Rand, total int) dist.NodeID {
	best := -1
	for c, members := range st.class {
		st.credit[c] += float64(len(members)) / float64(total)
		if len(members) > 0 && (best < 0 || st.credit[c] > st.credit[best]) {
			best = c
		}
	}
	st.credit[best]--
	members := st.class[best]
	return members[rng.Intn(len(members))]
}
