package protocols

import (
	"slices"

	"nearspan/internal/graph"
)

// This file holds centralized counterparts of the distributed protocols.
// They compute the same outputs directly on the graph — same deterministic
// tie-breaking, no round machinery — and serve two purposes: oracles in
// the protocol tests, and the building blocks of the centralized
// reference implementation of the spanner construction (internal/core),
// whose output must be identical to the distributed one.

// CentralNearNeighborsRec is the phase-level simulation of Algorithm 1:
// it reproduces the distributed NearNeighbors protocol's outputs (known
// centers, distances, Via ports, popularity) exactly, without the round
// machinery. It is the replay from the empty run (ReplayNearNeighbors),
// in which every vertex that hears a center joins.
//
// When rec is non-nil, every vertex's per-phase forward selections are
// recorded and the finished transcript returned (zero-value otherwise).
// The recorded segments are identical to those a distributed run with the
// same inputs records — the forward selections are bit-equal across
// modes, and the encoder is shared.
func CentralNearNeighborsRec(g *graph.Graph, centers []int, deg int, delta int32, rec *TranscriptRecorder) (NNResult, NNTranscript) {
	nn, _ := replayNearNeighbors(g, &NNRun{}, centers, nil, deg, delta, rec, nil)
	var tr NNTranscript
	if rec != nil {
		tr = rec.Finish()
	}
	return nn, tr
}

// NNRun is one near-neighbors run: its centers (ascending), its table and
// its forward transcript. The zero NNRun is the empty run: no centers,
// nothing stored, nothing forwarded.
type NNRun struct {
	Centers    []int
	NN         NNResult
	Transcript NNTranscript
}

// row returns v's stored row in the run.
func (r *NNRun) row(v int) (keys []int64, dist, ports []int32) {
	if r.NN.off == nil {
		return nil, nil, nil
	}
	return r.NN.Row(v)
}

// segs returns v's forward segments in the run.
func (r *NNRun) segs(v int32) []ForwardSeg {
	if r.Transcript.Segs == nil {
		return nil
	}
	return r.Transcript.Segs[v]
}

// ReplayNearNeighbors computes the near-neighbors run on g with the given
// centers from prev, a run with the same deg and delta on a graph that
// differs from g only in edges at the seeds. It recomputes only the
// vertices whose hearings can differ from prev's and copies every other
// row, so the result is bit-identical to a run from scratch.
//
// A vertex's hearings, and with them its forwards, stored centers and
// Via ports, are a pure function of its ports and its neighbors'
// forwards (announcements before phase 1). A vertex joins the replay at
// phase 1 if it is a seed or a neighbor of a vertex whose centerhood
// changed, and at phase p+1 if a neighbor's list first differs from
// prev's at phase p. Until it joins it hears what it heard in prev. On
// joining it is seeded with its prev row's entries of distance below the
// join phase and its prev transcript's segments before it.
//
// A joined vertex is recomputed at its join phase, in a phase after a
// neighbor's list changed (a recomputed change, a segment boundary in a
// clean neighbor's prev transcript, or a center's announcement giving way
// to its phase-1 list), and in a phase where its own prev list changed,
// the one place its list can start to differ from prev's without
// changing. In every other phase it hears what it heard in the phase
// before, so it forwards the same list and stores nothing new (the proof
// is NearNeighbors' skip rule), and the replay leaves it alone.
//
// tracked is the number of joined vertices. The result does not depend
// on it: the replay equals a run from scratch however many join.
func ReplayNearNeighbors(g *graph.Graph, prev *NNRun, centers, seeds []int, deg int, delta int32) (run NNRun, tracked int) {
	rec := NewTranscriptRecorder(g.N())
	nn, tracked := replayNearNeighbors(g, prev, centers, seeds, deg, delta, rec, nil)
	return NNRun{Centers: centers, NN: nn, Transcript: rec.Finish()}, tracked
}

// nnReplay is the state of one ReplayNearNeighbors call.
type nnReplay struct {
	g    *graph.Graph
	prev *NNRun
	rec  *TranscriptRecorder // nil: record nothing

	st      []NNState // joined vertices' state; centers' announcements
	isC     []bool
	joined  []bool
	spread  []bool  // the vertex's list differed from prev's: its neighbors joined
	stamp   []int32 // the last phase the vertex was woken for
	tracked int

	phase int32             // the phase being replayed, 0 before the first
	next  []int32           // vertices to recompute at phase+1
	later map[int32][]int32 // vertices to recompute at later phases
}

// replayNearNeighbors is ReplayNearNeighbors recording into rec (nil
// records nothing). onPhase, when non-nil, is shown each phase's
// receivers, the vertices the phase recomputes.
func replayNearNeighbors(g *graph.Graph, prev *NNRun, centers, seeds []int, deg int, delta int32, rec *TranscriptRecorder, onPhase func(p int32, receivers []int32)) (NNResult, int) {
	n := g.N()
	r := &nnReplay{
		g: g, prev: prev, rec: rec,
		st: make([]NNState, n), isC: make([]bool, n), joined: make([]bool, n),
		spread: make([]bool, n), stamp: make([]int32, n), later: map[int32][]int32{},
	}
	if rec != nil {
		rec.resume(&prev.Transcript)
	}
	// A center's phase-0 list is its announcement; one array holds them.
	ann := make([]int64, len(centers))
	for i, c := range centers {
		r.isC[c] = true
		ann[i] = int64(c)
		r.st[c].fwd = ann[i : i+1 : i+1]
	}
	moved := slices.Clone(r.isC) // centerhood differs from prev's
	for _, c := range prev.Centers {
		moved[c] = !r.isC[c]
	}
	for _, v := range seeds {
		r.join(int32(v), 1)
	}
	for v, m := range moved {
		if m {
			for _, u := range g.Neighbors(v) {
				r.join(u, 1)
			}
		}
	}

	var cur []int32
	for r.phase < delta && (len(r.next) > 0 || len(r.later) > 0) {
		r.phase++
		p := r.phase
		cur, r.next = r.next, cur[:0]
		for _, u := range r.later[p] {
			if r.stamp[u] != p {
				r.stamp[u] = p
				cur = append(cur, u)
			}
		}
		delete(r.later, p)
		if onPhase != nil && len(cur) > 0 {
			onPhase(p, cur)
		}
		// Each receiver pulls its neighbors' lists of the phase before:
		// a joined neighbor's from its state, a clean one's from prev's
		// transcript. The port toward a neighbor is its position in the
		// sorted adjacency.
		for _, u := range cur {
			s := &r.st[u]
			for port, w := range g.Neighbors(int(u)) {
				fwd := r.st[w].fwd
				if p > 1 && !r.joined[w] {
					fwd = forwardsAt(r.prev.segs(w), p-1)
				}
				if len(fwd) > 0 {
					s.HearRun(fwd, int32(port), deg, int64(u))
				}
			}
		}
		for _, u := range cur {
			fwd, changed := r.st[u].Finalize(p, deg, delta)
			if p == delta {
				continue // the last phase forwards nothing
			}
			if changed && rec != nil {
				rec.Set(int(u), p, fwd)
			}
			diverged := !r.spread[u] && !slices.Equal(fwd, forwardsAt(r.prev.segs(u), p))
			if !changed && !diverged {
				continue
			}
			r.spread[u] = r.spread[u] || diverged
			for _, w := range g.Neighbors(int(u)) {
				if r.joined[w] {
					if changed {
						r.wake(w, p+1)
					}
				} else if diverged {
					r.join(w, p+1)
				}
			}
		}
	}
	return NewNNResult(n, func(v int) ([]int64, []int32, []int32, bool) {
		keys, dist, ports := prev.row(v)
		if r.joined[v] {
			keys, dist, ports = r.st[v].Known()
		}
		return keys, dist, ports, r.isC[v] && len(keys) >= deg
	}), r.tracked
}

// join starts recomputing u at phase p, the phase after the current one,
// from the state it held in prev when p began, and wakes it at the later
// phases where prev's transcript says its hearings or its own list
// changed.
func (r *nnReplay) join(u int32, p int32) {
	if r.joined[u] {
		return
	}
	r.joined[u] = true
	r.tracked++
	segs := r.prev.segs(u)
	cut := segsBefore(segs, p)
	fwd := r.st[u].fwd // the announcement
	if p > 1 {
		fwd = forwardsAt(segs, p-1)
	}
	keys, dist, ports := r.prev.row(int(u))
	r.st[u].Seed(keys, dist, ports, fwd, p)
	if r.rec != nil {
		r.rec.restart(int(u), segs[:cut])
	}
	r.wake(u, p)
	for _, s := range segs[cut:] {
		r.wake(u, s.From)
	}
	nbrs := r.g.Neighbors(int(u))
	// A center's list changes at phase 1, when its first forwards
	// replace its announcement.
	if p == 1 && slices.ContainsFunc(nbrs, func(w int32) bool { return r.isC[w] }) {
		r.wake(u, 2)
	}
	if r.prev.Transcript.Segs != nil {
		for _, w := range nbrs {
			ws := r.prev.segs(w)
			for _, s := range ws[segsBefore(ws, p):] {
				r.wake(u, s.From+1)
			}
		}
	}
}

// wake schedules u's recomputation at phase p, after the current one.
func (r *nnReplay) wake(u int32, p int32) {
	if p == r.phase+1 {
		if r.stamp[u] != p {
			r.stamp[u] = p
			r.next = append(r.next, u)
		}
		return
	}
	// A join wakes its vertex for a run of phases: skip repeats.
	if l := r.later[p]; len(l) == 0 || l[len(l)-1] != u {
		r.later[p] = append(l, u)
	}
}

// TracePath follows Via pointers from v toward center c using the
// NNResult routing state, returning the vertex sequence v, ..., c. It
// reports ok=false if the pointers do not lead to c (which the
// construction never encounters for its traced pairs; tested).
func TracePath(g *graph.Graph, nn NNResult, v int, c int64) (path []int, ok bool) {
	cur := v
	path = append(path, cur)
	for int64(cur) != c {
		port, exists := nn.Port(cur, c)
		if !exists || len(path) > g.N() {
			return path, false
		}
		cur = g.Neighbor(cur, port)
		path = append(path, cur)
	}
	return path, true
}

// CentralRulingSet runs the digit-competition ruling set centrally,
// reproducing the distributed protocol's output exactly: same digits,
// same window order, same kill radius q.
func CentralRulingSet(g *graph.Graph, members []int, q int32, c int, n int) []int {
	b := DigitBase(n, c)
	// Dense active flags over a sorted member list: the competition below
	// is order-independent (kills are a pure function of digits and
	// distances), and the ascending scan makes the output sorted for free.
	sorted := slices.Clone(members)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	active := make([]bool, g.N())
	for _, w := range sorted {
		active[w] = true
	}
	var firing []int
	for pos := c - 1; pos >= 0; pos-- {
		for value := b - 1; value >= 0; value-- {
			firing = firing[:0]
			for _, w := range sorted {
				if active[w] && digit(int64(w), pos, b) == value {
					firing = append(firing, w)
				}
			}
			if len(firing) == 0 {
				continue
			}
			// Kill active candidates with a smaller current digit within
			// distance q of any firing candidate.
			dist, _, _ := g.MultiBFS(firing, q)
			for _, w := range sorted {
				if active[w] && dist[w] <= q && digit(int64(w), pos, b) < value {
					active[w] = false
				}
			}
		}
	}
	out := make([]int, 0, len(sorted))
	for _, w := range sorted {
		if active[w] {
			out = append(out, w)
		}
	}
	return out
}

// VerifyRulingSet checks the two ruling-set guarantees and returns
// (separationOK, dominationOK). Separation: selected vertices pairwise at
// distance >= q+1. Domination: every member within domRadius of a
// selected vertex.
func VerifyRulingSet(g *graph.Graph, members, selected []int, q int32, domRadius int32) (sepOK, domOK bool) {
	sepOK = true
	sel := make(map[int]bool, len(selected))
	for _, s := range selected {
		sel[s] = true
	}
	for _, s := range selected {
		dist := g.BFSBounded(s, q)
		for v := 0; v < g.N(); v++ {
			if v != s && sel[v] && dist[v] <= q {
				sepOK = false
			}
		}
	}
	domOK = true
	if len(selected) > 0 {
		dist, _, _ := g.MultiBFS(selected, domRadius)
		for _, w := range members {
			if dist[w] > domRadius {
				domOK = false
			}
		}
	} else if len(members) > 0 {
		domOK = false
	}
	return sepOK, domOK
}
