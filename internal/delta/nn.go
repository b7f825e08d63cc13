package delta

import (
	"slices"

	"nearspan/internal/graph"
	"nearspan/internal/protocols"
)

// NNDiff is the outcome of one transcript-diff near-neighbors run: the
// spliced table (bit-identical to a from-scratch run on the patched
// graph), the patched-run transcript (so rebuilds chain), and the dirty
// frontier's size.
type NNDiff struct {
	NN         protocols.NNResult
	Transcript protocols.NNTranscript
	Tracked    int
}

// DiffNN recomputes Algorithm 1's output on the patched graph gNew by
// replaying only a dirty frontier against the previous run's forward
// transcript, instead of re-running the protocol over every vertex.
//
// The soundness of the frontier scoping rests on one structural fact of
// the protocol: the only state a vertex exports is its per-phase forward
// list (and, at phase 0, its center announcement). A vertex's hearings —
// and therefore its forwards and its stored centers and Via ports — are
// a pure function of its neighbor set and its neighbors' forwards. So a
// vertex whose neighborhood is unchanged and whose neighbors' forwards
// match the previous run hears exactly what it heard before, and its
// entire row can be spliced verbatim.
//
// The frontier is seeded with the delta endpoints (their adjacency, port
// numbering, and hearing stream changed) plus every neighbor of a vertex
// whose centerhood changed between the runs (its phase-0 announcement
// changed), and grows by one rule: when a tracked vertex's recomputed
// forward list for phase p differs from its transcript entry, its
// neighbors join the frontier at phase p+1 — exactly the vertices whose
// hearings the divergence can reach, exactly when it reaches them.
// Tracked vertices are replayed in full from their join phase, seeded
// with their previous row's entries of distance < join phase (entry
// distances equal the phase each entry was stored, so the prefix state
// is recoverable from the final row).
//
// prevNN, prevT, and prevCenters describe the previous run; centers is
// the patched run's center set. When the frontier exceeds maxTracked
// vertices (<= 0 means unlimited) the diff abandons and reports ok =
// false — the fallback-to-full signal.
func DiffNN(gNew *graph.Graph, prevNN *protocols.NNResult, prevT *protocols.NNTranscript,
	centers, prevCenters, seeds []int, deg int, delta int32, maxTracked int) (NNDiff, bool) {

	n := gNew.N()
	isC := make([]bool, n)
	for _, c := range centers {
		isC[c] = true
	}
	wasC := make([]bool, n)
	for _, c := range prevCenters {
		wasC[c] = true
	}

	tracked := make([]bool, n)
	joinPhase := make([]int32, n)
	var order []int32
	st := make([]protocols.NNState, n)        // replay state (tracked only)
	rows := make([][]protocols.ForwardSeg, n) // rebuilt transcript rows (tracked only)
	curList := make([][]int64, n)             // RLE state: list of the latest row segment
	prevFwd := make([][]int64, n)             // tracked forwards at the last processed phase
	nextFwd := make([][]int64, n)

	overflow := false
	join := func(v int, p int32) {
		if tracked[v] || overflow {
			return
		}
		tracked[v] = true
		joinPhase[v] = p
		order = append(order, int32(v))
		if maxTracked > 0 && len(order) > maxTracked {
			overflow = true
			return
		}
		// Seed the replay state with the prefix the vertex is known to
		// share with the previous run: stored entries of distance < p,
		// and transcript segments starting before p.
		keys, dist, ports := prevNN.Row(v)
		st[v].Seed(keys, dist, ports, p)
		segs := prevT.Segs[v]
		cut := 0
		for cut < len(segs) && segs[cut].From < p {
			cut++
		}
		rows[v] = slices.Clone(segs[:cut])
		if cut > 0 {
			curList[v] = segs[cut-1].IDs
		}
	}

	for _, v := range seeds {
		join(v, 1)
	}
	for v := 0; v < n && !overflow; v++ {
		if isC[v] != wasC[v] {
			for _, u := range gNew.Neighbors(v) {
				join(int(u), 1)
			}
		}
	}

	// liveUntil is the last phase at which any clean vertex can still
	// forward according to the transcript (delta = alive to the end). The
	// replay loop must run while clean waves are live or tracked vertices
	// still forward; past both, the network is dead and the loop stops.
	liveUntil := int32(0)
	for _, segs := range prevT.Segs {
		if len(segs) == 0 {
			continue
		}
		if last := segs[len(segs)-1]; len(last.IDs) > 0 {
			liveUntil = delta
			break
		} else if last.From-1 > liveUntil {
			liveUntil = last.From - 1
		}
	}

	for p := int32(1); p <= delta && !overflow; p++ {
		if len(order) == 0 {
			break
		}
		anyFwd := false
		nProc := len(order) // joins during this phase start at p+1
		for oi := 0; oi < nProc && !overflow; oi++ {
			v := int(order[oi])
			if joinPhase[v] > p {
				continue
			}
			// Hearings: phase 1 hears announcements, later phases hear
			// what neighbors forwarded at p-1 — recomputed lists for
			// tracked neighbors already replaying, transcript entries for
			// everyone else.
			s := &st[v]
			for pos, u := range gNew.Neighbors(v) {
				if p == 1 {
					if isC[u] {
						s.Hear(int64(u), int32(pos), deg)
					}
					continue
				}
				fl := prevFwd[u]
				if !tracked[u] || joinPhase[u] >= p {
					fl = prevT.ForwardsAt(int(u), p-1)
				}
				s.HearRun(fl, int32(pos), deg, int64(v))
			}
			fwds, _ := s.Finalize(p, deg, delta)
			if len(fwds) > 0 {
				anyFwd = true
			}
			if p < delta {
				if !slices.Equal(curList[v], fwds) {
					seg := protocols.ForwardSeg{From: p, IDs: slices.Clone(fwds)}
					rows[v] = append(rows[v], seg)
					curList[v] = seg.IDs
				}
				// Divergence from the transcript reaches the neighbors'
				// hearings one phase later: grow the frontier there.
				if !slices.Equal(fwds, prevT.ForwardsAt(v, p)) {
					for _, u := range gNew.Neighbors(v) {
						join(int(u), p+1)
					}
				}
			}
			nextFwd[v] = append(nextFwd[v][:0], fwds...)
		}
		for oi := 0; oi < nProc; oi++ {
			v := int(order[oi])
			if joinPhase[v] <= p {
				prevFwd[v], nextFwd[v] = nextFwd[v], prevFwd[v]
			}
		}
		if p > liveUntil && !anyFwd {
			break
		}
	}
	if overflow {
		return NNDiff{}, false
	}

	// Splice: clean rows verbatim from the previous table, tracked rows
	// from the replay state; popularity from the patched center set.
	nn := protocols.NewNNResult(n, func(v int) ([]int64, []int32, []int32, bool) {
		keys, dist, ports := prevNN.Row(v)
		if tracked[v] {
			keys, dist, ports = st[v].Known()
		}
		return keys, dist, ports, isC[v] && len(keys) >= deg
	})
	segs := make([][]protocols.ForwardSeg, n)
	for v := 0; v < n; v++ {
		if tracked[v] {
			segs[v] = rows[v]
		} else {
			segs[v] = prevT.Segs[v]
		}
	}
	return NNDiff{
		NN:         nn,
		Transcript: protocols.NNTranscript{Segs: segs},
		Tracked:    len(order),
	}, true
}
