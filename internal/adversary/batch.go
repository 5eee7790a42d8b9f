package adversary

import (
	"fmt"
	"math/rand"
)

// Batch schedule generation: the omniscient adversary can also fire
// deletions in bursts. A BatchStrategy picks the burst's victims; the
// shapes below span the spectrum the batched-repair pipeline has to
// handle — fully independent regions (the throughput best case),
// uniformly random ones, and deliberately colliding clusters (the
// worst case for region admission: maximal serialization).

// BatchStrategy selects up to k live nodes to delete as one batch. It
// returns fewer (possibly zero) when the network cannot supply k.
type BatchStrategy interface {
	Name() string
	NextBatch(v View, rng *rand.Rand, k int) []NodeID
}

// RandomBatch deletes k distinct uniformly random live nodes.
type RandomBatch struct{}

// Name implements BatchStrategy.
func (RandomBatch) Name() string { return "random-batch" }

// NextBatch implements BatchStrategy.
func (RandomBatch) NextBatch(v View, rng *rand.Rand, k int) []NodeID {
	live := v.LiveNodes()
	if k > len(live) {
		k = len(live)
	}
	if k <= 0 {
		return nil
	}
	out := make([]NodeID, 0, k)
	for _, idx := range rng.Perm(len(live))[:k] {
		out = append(out, live[idx])
	}
	return out
}

// DisjointBatch greedily picks victims whose closed neighborhoods in
// the *actual* network are pairwise at distance ≥ 3 (no shared
// neighbors, no adjacency), so on a freshly healed network their
// damaged regions are vertex-disjoint and the repairs overlap fully.
// It stops early when no further node is far enough from every pick.
type DisjointBatch struct{}

// Name implements BatchStrategy.
func (DisjointBatch) Name() string { return "disjoint-batch" }

// NextBatch implements BatchStrategy.
func (DisjointBatch) NextBatch(v View, rng *rand.Rand, k int) []NodeID {
	live := v.LiveNodes()
	if len(live) == 0 || k <= 0 {
		return nil
	}
	net := v.Network()
	blocked := make(map[NodeID]struct{}) // picks, their nbrs, and nbrs-of-nbrs
	var out []NodeID
	for _, idx := range rng.Perm(len(live)) {
		if len(out) >= k {
			break
		}
		u := live[idx]
		if _, b := blocked[u]; b {
			continue
		}
		conflict := false
		net.EachNeighbor(u, func(w NodeID) {
			if _, b := blocked[w]; b {
				conflict = true
			}
		})
		if conflict {
			continue
		}
		out = append(out, u)
		blocked[u] = struct{}{}
		net.EachNeighbor(u, func(w NodeID) {
			blocked[w] = struct{}{}
			net.EachNeighbor(w, func(x NodeID) {
				blocked[x] = struct{}{}
			})
		})
	}
	return out
}

// CollidingBatch grows the batch as a breadth-first cluster around a
// random anchor in the actual network: adjacent victims whose damage
// walks are guaranteed to collide, forcing maximal serialization.
type CollidingBatch struct{}

// Name implements BatchStrategy.
func (CollidingBatch) Name() string { return "colliding-batch" }

// NextBatch implements BatchStrategy.
func (CollidingBatch) NextBatch(v View, rng *rand.Rand, k int) []NodeID {
	live := v.LiveNodes()
	if len(live) == 0 || k <= 0 {
		return nil
	}
	if k > len(live) {
		k = len(live)
	}
	net := v.Network()
	anchor := live[rng.Intn(len(live))]
	order := net.BFSOrder(anchor)
	out := make([]NodeID, 0, k)
	seen := make(map[NodeID]struct{}, k)
	for _, u := range order {
		if len(out) >= k {
			break
		}
		out = append(out, u)
		seen[u] = struct{}{}
	}
	// Disconnected remainder: pad with random live nodes.
	for _, idx := range rng.Perm(len(live)) {
		if len(out) >= k {
			break
		}
		u := live[idx]
		if _, dup := seen[u]; !dup {
			out = append(out, u)
			seen[u] = struct{}{}
		}
	}
	return out
}

// BatchByName resolves the batch strategies used by the CLI tools.
func BatchByName(name string) (BatchStrategy, error) {
	switch name {
	case "random":
		return RandomBatch{}, nil
	case "disjoint":
		return DisjointBatch{}, nil
	case "colliding":
		return CollidingBatch{}, nil
	default:
		return nil, fmt.Errorf("adversary: unknown batch strategy %q (want random, disjoint, or colliding)", name)
	}
}

// BatchNames lists the strategies BatchByName accepts.
func BatchNames() []string { return []string{"random", "disjoint", "colliding"} }
