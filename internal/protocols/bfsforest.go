// Package protocols implements the distributed building blocks of the
// spanner construction as CONGEST node programs:
//
//   - BFSForest: multi-source BFS forest growth to a bounded depth
//     (used by the superclustering step, paper §2.2).
//   - NearNeighbors: Algorithm 1 of the paper (Appendix A), the
//     bandwidth-respecting detection of popular cluster centers.
//   - RulingSet: the deterministic (q+1, cq)-ruling set computation of
//     Theorem 2.2 (Schneider–Elkin–Wattenhofer / Kuhn–Maus–Weidner
//     style digit competition).
//   - Climb: parent-pointer path tracing, used to add tree paths and
//     interconnection paths to the spanner.
//
// Every protocol is deterministic; ties are always broken toward smaller
// IDs, so repeated runs (and every simulator shard layout) produce
// identical results.
package protocols

import (
	"nearspan/internal/congest"
)

// Message kinds. Kept in one block so no two protocols share a kind; the
// core driver runs protocols back to back and distinct kinds make stray
// late messages detectable.
const (
	kindForest uint8 = iota + 1
	kindNN
	kindRulingWave
	kindClimb
)

// BFSForest grows a BFS forest of depth MaxDepth rooted at the root set.
// After Run(Rounds()) on a simulator, every vertex within distance
// MaxDepth of the root set knows its distance (Dist), the ID of its root
// (Root), and the port toward its parent (ParentPort; -1 at roots).
//
// Adoption ties are broken toward the smallest root ID, then the smallest
// parent ID — the same rule as graph.MultiBFS, which is the sequential
// oracle for this protocol.
type BFSForest struct {
	IsRoot   bool
	MaxDepth int32

	Dist       int32 // -1 if not reached
	Root       int64 // -1 if not reached
	ParentPort int   // -1 at roots and unreached vertices
}

var _ congest.Program = (*BFSForest)(nil)

// NewBFSForest returns the program factory for a forest rooted at roots
// (given as a membership predicate) with the given depth bound.
func NewBFSForest(isRoot func(v int) bool, maxDepth int32) func(v int) congest.Program {
	return func(v int) congest.Program {
		return &BFSForest{IsRoot: isRoot(v), MaxDepth: maxDepth}
	}
}

// ForestRounds is the round budget for a depth-d forest: layer k adopts
// at round k, for k = 1..d.
func ForestRounds(maxDepth int32) int { return int(maxDepth) }

// Init implements congest.Program.
func (b *BFSForest) Init(env *congest.Env) {
	b.Dist = -1
	b.Root = -1
	b.ParentPort = -1
	if b.IsRoot {
		b.Dist = 0
		b.Root = int64(env.ID())
		if b.MaxDepth > 0 {
			_ = env.Broadcast(forestMsg(b.Root, 0))
		}
	}
	env.Halt()
}

// Round implements congest.Program.
func (b *BFSForest) Round(env *congest.Env) {
	defer env.Halt()
	if b.Dist >= 0 {
		return // already adopted; late messages carry larger distances
	}
	bestRoot := int64(-1)
	bestParent := -1
	bestPort := -1
	for port, m := range env.Recv() {
		if m.Kind != kindForest {
			continue
		}
		root := m.Words[0]
		sender := env.NeighborID(port)
		if bestRoot < 0 || root < bestRoot || (root == bestRoot && sender < bestParent) {
			bestRoot = root
			bestParent = sender
			bestPort = port
		}
	}
	if bestRoot < 0 {
		return
	}
	b.Dist = int32(env.Round())
	b.Root = bestRoot
	b.ParentPort = bestPort
	if b.Dist < b.MaxDepth {
		_ = env.Broadcast(forestMsg(b.Root, b.Dist))
	}
}

func forestMsg(root int64, dist int32) congest.Message {
	return congest.Message{Kind: kindForest, Words: [congest.MessageWords]int64{root, int64(dist)}}
}

// ForestResult is the per-vertex outcome of a BFSForest run.
type ForestResult struct {
	Dist       []int32
	Root       []int64
	ParentPort []int
}

// ExtractForest collects the per-vertex forest state from a finished
// simulator whose programs are *BFSForest.
func ExtractForest(sim *congest.Simulator) ForestResult {
	n := sim.Graph().N()
	res := ForestResult{
		Dist:       make([]int32, n),
		Root:       make([]int64, n),
		ParentPort: make([]int, n),
	}
	for v := 0; v < n; v++ {
		p := sim.Program(v).(*BFSForest)
		res.Dist[v] = p.Dist
		res.Root[v] = p.Root
		res.ParentPort[v] = p.ParentPort
	}
	return res
}
