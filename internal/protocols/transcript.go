package protocols

import "slices"

// This file implements forward-transcript recording for the
// NearNeighbors protocol (Algorithm 1), the substrate of the delta
// rebuild engine (internal/delta). A transcript captures, per vertex and
// per protocol phase, the forward list the vertex selected — the only
// per-phase state a vertex exports to its neighbors. Given the previous
// build's transcript, an edge-delta rebuild can recompute hearings for a
// small dirty frontier while reading every clean neighbor's forwards
// straight from the transcript, never touching the rest of the graph.
//
// Transcripts are run-length encoded over phases: a vertex's forward
// list changes only while waves are still arriving (it is the smallest
// deg+1 center IDs heard that phase, and the heard set saturates within
// a few phases on the workloads we serve), so storing one segment per
// change keeps a delta-radius-225 transcript at a few segments per
// vertex instead of 225 dense rows.

// ForwardSeg is one run of a vertex's forward history: from protocol
// phase From (inclusive) until the next segment's From (exclusive, or
// forever), the vertex's selected forward list was IDs (ascending). An
// empty IDs means the vertex forwarded nothing during the run.
type ForwardSeg struct {
	From int32
	IDs  []int64
}

// NNTranscript is the recorded forward history of one NearNeighbors
// run. Segs[v] holds v's segments in ascending From order; a vertex with
// no segments never forwarded anything. Both execution modes record the
// same segments for the same run (the forward selections are
// bit-identical across modes, and the encoder below is shared).
type NNTranscript struct {
	Segs [][]ForwardSeg
}

// N returns the vertex count the transcript covers.
func (t *NNTranscript) N() int { return len(t.Segs) }

// ForwardsAt returns v's forward list during protocol phase p (phases
// are 1-based; forwards can exist only for phases 1..delta-1). The
// returned slice aliases the transcript.
func (t *NNTranscript) ForwardsAt(v int, p int32) []int64 {
	segs := t.Segs[v]
	// Find the last segment with From <= p.
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := (lo + hi) / 2
		if segs[mid].From <= p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	return segs[lo-1].IDs
}

// TranscriptRecorder builds an NNTranscript incrementally. Set may be
// called sparsely: phases between two Set calls for the same vertex
// repeat the earlier list (the centralized twin records a vertex only
// when its list changes; the distributed program calls Set every phase —
// both call patterns encode to the same segments). Rows are per-vertex,
// so concurrent Set calls for distinct vertices are safe — the invariant
// fanned-out simulator rounds rely on.
type TranscriptRecorder struct {
	segs [][]ForwardSeg
	cur  [][]int64 // last recorded list per vertex (aliases its segment)
}

// NewTranscriptRecorder returns a recorder for n vertices.
func NewTranscriptRecorder(n int) *TranscriptRecorder {
	return &TranscriptRecorder{segs: make([][]ForwardSeg, n), cur: make([][]int64, n)}
}

// Set records v's forward list from protocol phase p >= 1 on. Calls for
// one vertex must have ascending p; ids need not survive the call (it is
// cloned when a new segment is cut).
func (r *TranscriptRecorder) Set(v int, p int32, ids []int64) {
	if !slices.Equal(r.cur[v], ids) {
		seg := ForwardSeg{From: p, IDs: slices.Clone(ids)}
		r.segs[v] = append(r.segs[v], seg)
		r.cur[v] = seg.IDs
	}
}

// Finish returns the transcript. The recorder must not be reused.
func (r *TranscriptRecorder) Finish() NNTranscript {
	return NNTranscript{Segs: r.segs}
}
