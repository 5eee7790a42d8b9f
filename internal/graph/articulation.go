package graph

// ArticulationPoints returns the cut vertices of the graph — the nodes
// whose removal disconnects their component — in ascending order. It is
// the standard Tarjan low-link computation, implemented iteratively so
// deep path graphs cannot overflow the stack. Used by the cut-vertex
// adversary: deleting articulation points is the most structurally
// damaging attack a topology admits.
func (g *Graph) ArticulationPoints() []NodeID {
	index := make(map[NodeID]int, g.n)    // discovery times, 1-based
	low := make(map[NodeID]int, g.n)      // low-link values
	childCnt := make(map[NodeID]int, g.n) // DFS-tree children of roots
	isCut := make(map[NodeID]bool)
	time := 0

	type frame struct {
		v, parent NodeID
		nbrs      []NodeID
		next      int
	}

	for _, root := range g.Nodes() {
		if index[root] != 0 {
			continue
		}
		time++
		index[root] = time
		low[root] = time
		stack := []frame{{v: root, parent: root, nbrs: g.Neighbors(root)}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(f.nbrs) {
				w := f.nbrs[f.next]
				f.next++
				if w == f.parent {
					continue
				}
				if index[w] != 0 {
					if index[w] < low[f.v] {
						low[f.v] = index[w]
					}
					continue
				}
				time++
				index[w] = time
				low[w] = time
				if f.v == root {
					childCnt[root]++
				}
				stack = append(stack, frame{v: w, parent: f.v, nbrs: g.Neighbors(w)})
				continue
			}
			// Post-order: fold low-link into the parent.
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				continue
			}
			p := &stack[len(stack)-1]
			if low[f.v] < low[p.v] {
				low[p.v] = low[f.v]
			}
			if p.v != root && low[f.v] >= index[p.v] {
				isCut[p.v] = true
			}
		}
		if childCnt[root] >= 2 {
			isCut[root] = true
		}
	}

	out := make([]NodeID, 0, len(isCut))
	for v := range isCut {
		out = append(out, v)
	}
	sortNodeIDs(out)
	return out
}
