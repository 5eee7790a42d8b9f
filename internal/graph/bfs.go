package graph

// Unreachable is the distance reported for vertex pairs with no connecting
// path. It is negative so that accidental arithmetic on it is conspicuous.
const Unreachable = -1

// BFS computes single-source shortest-path distances (in hops) from src.
// The result maps every vertex reachable from src (including src itself,
// at distance 0) to its distance. Vertices not present in the map are
// unreachable. BFS of an absent vertex returns an empty map.
func (g *Graph) BFS(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		su, _ := g.slot(u)
		for _, h := range g.adj[su] {
			v := g.ids[h.to]
			if _, seen := dist[v]; !seen {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSOrder returns the vertices reachable from src in breadth-first
// order, src first, visiting each frontier's neighbors in ascending ID
// order so that the result is deterministic. An absent src yields nil.
func (g *Graph) BFSOrder(src NodeID) []NodeID {
	if !g.HasNode(src) {
		return nil
	}
	seen := map[NodeID]struct{}{src: {}}
	order := []NodeID{src}
	for i := 0; i < len(order); i++ {
		for _, v := range g.Neighbors(order[i]) {
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				order = append(order, v)
			}
		}
	}
	return order
}

// Distance returns the hop distance between u and v, or Unreachable if no
// path exists (or either endpoint is absent). It runs a bidirectional-free
// plain BFS from u, stopping early when v is settled.
func (g *Graph) Distance(u, v NodeID) int {
	if !g.HasNode(u) || !g.HasNode(v) {
		return Unreachable
	}
	if u == v {
		return 0
	}
	dist := map[NodeID]int{u: 0}
	queue := []NodeID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		dx := dist[x]
		sx, _ := g.slot(x)
		for _, h := range g.adj[sx] {
			y := g.ids[h.to]
			if _, seen := dist[y]; !seen {
				if y == v {
					return dx + 1
				}
				dist[y] = dx + 1
				queue = append(queue, y)
			}
		}
	}
	return Unreachable
}

// Connected reports whether the graph is connected. The empty graph and
// singleton graphs are connected by convention.
func (g *Graph) Connected() bool {
	if g.NumNodes() <= 1 {
		return true
	}
	for s, live := range g.live {
		if live {
			return len(g.BFS(g.ids[s])) == g.NumNodes()
		}
	}
	return true
}

// Components returns the connected components as slices of ascending
// NodeIDs, ordered by their smallest member.
func (g *Graph) Components() [][]NodeID {
	seen := make(map[NodeID]struct{}, g.n)
	var comps [][]NodeID
	for _, u := range g.Nodes() {
		if _, ok := seen[u]; ok {
			continue
		}
		var comp []NodeID
		for v := range g.BFS(u) {
			seen[v] = struct{}{}
			comp = append(comp, v)
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the maximum distance from u to any vertex reachable
// from u, and the number of vertices reached. Returns 0,0 for an absent u.
func (g *Graph) Eccentricity(u NodeID) (ecc, reached int) {
	dist := g.BFS(u)
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc, len(dist)
}

// Diameter computes the exact diameter (longest shortest path) of the
// graph by running a BFS from every vertex. It returns Unreachable if the
// graph is disconnected, and 0 for graphs with fewer than two vertices.
func (g *Graph) Diameter() int {
	if g.NumNodes() <= 1 {
		return 0
	}
	n := g.NumNodes()
	diam := 0
	for _, u := range g.Nodes() {
		ecc, reached := g.Eccentricity(u)
		if reached != n {
			return Unreachable
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// AllPairsDistances runs a BFS from every vertex and returns the full
// distance table. Intended for small and medium graphs (O(n·(n+m)) time).
func (g *Graph) AllPairsDistances() map[NodeID]map[NodeID]int {
	out := make(map[NodeID]map[NodeID]int, g.n)
	for _, u := range g.Nodes() {
		out[u] = g.BFS(u)
	}
	return out
}

func sortNodeIDs(ids []NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
