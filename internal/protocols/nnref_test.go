package protocols

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"nearspan/internal/congest"
	"nearspan/internal/graph"
)

// This file holds the map-based implementation of Algorithm 1's phase
// rules that the centralized twin used before its two callers (the
// distributed program and the replay behind CentralNearNeighborsRec and
// ReplayNearNeighbors) came to share one NNState kernel. It keeps every
// hearing in an unbounded per-vertex map, breaks ties by sender ID, sorts
// the whole heard set and finalizes every vertex that heard anything each
// phase, so it checks the kernel's bounded buffer, its port tie-break and
// the replay's change-driven phase loop rather than restating them.

// refHearing records the best (smallest sender ID) announcement of a
// center during one phase.
type refHearing struct {
	sender int
	port   int
}

// ReferenceNearNeighbors exports the reference to the external test
// package, which also replays patched graphs.
var ReferenceNearNeighbors = referenceNearNeighbors

// referenceNearNeighbors is the map-based Algorithm 1. capped counts the
// (vertex, phase) pairs that heard more than deg+1+|known| distinct
// centers: the phases in which the kernel's bounded buffer must evict.
func referenceNearNeighbors(g *graph.Graph, centers []int, deg int, delta int32, rec *TranscriptRecorder) (nn NNResult, tr NNTranscript, capped int) {
	n := g.N()
	known := make([]map[int64]int32, n)
	via := make([]map[int64]int, n)
	popular := make([]bool, n)
	for v := 0; v < n; v++ {
		known[v] = make(map[int64]int32)
		via[v] = make(map[int64]int)
	}
	isCenter := make([]bool, n)
	for _, c := range centers {
		isCenter[c] = true
	}

	// buffer[v] holds this phase's hearings: center -> best sender.
	buffer := make([]map[int64]refHearing, n)
	for v := range buffer {
		buffer[v] = make(map[int64]refHearing)
	}
	hear := func(v int, c int64, sender int) {
		if c == int64(v) {
			return
		}
		h, ok := buffer[v][c]
		if !ok || sender < h.sender {
			buffer[v][c] = refHearing{sender: sender, port: g.PortOf(v, sender)}
		}
	}

	// Phase 0: announcements.
	for _, c := range centers {
		for _, u := range g.Neighbors(c) {
			hear(int(u), int64(c), c)
		}
	}

	var scratch []int64 // one vertex's forward list, reused across vertices
	for p := int32(1); p <= delta; p++ {
		// Process phase-p hearings (distance p), then deliver forwards.
		type fwd struct {
			v int
			c int64
		}
		var forwards []fwd
		for v := 0; v < n; v++ {
			if len(buffer[v]) == 0 {
				if rec != nil && p < delta {
					rec.Set(v, p, nil) // every vertex is recorded every phase
				}
				continue
			}
			if len(buffer[v]) > deg+1+len(known[v]) {
				capped++
			}
			ids := make([]int64, 0, len(buffer[v]))
			for c := range buffer[v] {
				ids = append(ids, c)
			}
			slices.Sort(ids)
			scratch = scratch[:0]
			for _, c := range ids {
				if len(scratch) < deg+1 && p < delta {
					scratch = append(scratch, c)
				}
				if _, stored := known[v][c]; !stored && len(known[v]) < deg {
					h := buffer[v][c]
					known[v][c] = p
					via[v][c] = h.port
				}
			}
			for _, c := range scratch {
				forwards = append(forwards, fwd{v: v, c: c})
			}
			if rec != nil && p < delta {
				rec.Set(v, p, scratch)
			}
			buffer[v] = make(map[int64]refHearing)
		}
		for _, f := range forwards {
			for _, u := range g.Neighbors(f.v) {
				hear(int(u), f.c, f.v)
			}
		}
		if len(forwards) == 0 {
			break
		}
	}
	for v := 0; v < n; v++ {
		popular[v] = isCenter[v] && len(known[v]) >= deg
	}
	if rec != nil {
		tr = rec.Finish()
	}
	return refFlatten(n, known, via, popular), tr, capped
}

// refFlatten flattens per-vertex known/via maps into the columnar
// layout (each vertex's run sorted ascending by center ID).
func refFlatten(n int, known []map[int64]int32, via []map[int64]int, popular []bool) NNResult {
	off := make([]int32, n+1)
	total := 0
	for v := 0; v < n; v++ {
		total += len(known[v])
		off[v+1] = int32(total)
	}
	keys := make([]int64, total)
	dist := make([]int32, total)
	ports := make([]int32, total)
	for v := 0; v < n; v++ {
		run := keys[off[v]:off[v+1]]
		i := 0
		for c := range known[v] {
			run[i] = c
			i++
		}
		slices.Sort(run)
		for j, c := range run {
			dist[int(off[v])+j] = known[v][c]
			ports[int(off[v])+j] = int32(via[v][c])
		}
	}
	return NNResult{Routing: Routing{off: off, keys: keys, ports: ports}, Dist: dist, Popular: popular}
}

// DiffNNTables returns a description of the first difference between two
// near-neighbors outcomes (rows, popularity, and the forward transcripts
// over phases 1..delta-1), or "" when they are equal.
func DiffNNTables(n int, delta int32, got NNResult, gotT NNTranscript, want NNResult, wantT NNTranscript) string {
	for v := 0; v < n; v++ {
		gk, gd, gp := got.Row(v)
		wk, wd, wp := want.Row(v)
		if !slices.Equal(gk, wk) || !slices.Equal(gd, wd) || !slices.Equal(gp, wp) {
			return fmt.Sprintf("vertex %d row: got %v %v %v, want %v %v %v", v, gk, gd, gp, wk, wd, wp)
		}
		if got.Popular[v] != want.Popular[v] {
			return fmt.Sprintf("vertex %d popular: got %v, want %v", v, got.Popular[v], want.Popular[v])
		}
		for p := int32(1); p < delta; p++ {
			if g, w := gotT.ForwardsAt(v, p), wantT.ForwardsAt(v, p); !slices.Equal(g, w) {
				return fmt.Sprintf("vertex %d forwards at phase %d: got %v, want %v", v, p, g, w)
			}
		}
	}
	return ""
}

// FuzzNearNeighborsVsReference decodes bytes into a small graph (n <= 48),
// a center mask, deg and delta, and requires the distributed program and
// the centralized twin to reproduce the reference exactly: rows,
// popularity and forward transcripts. The distributed program must also
// skip exactly the phases the twin skips.
func FuzzNearNeighborsVsReference(f *testing.F) {
	f.Add([]byte{10, 0xff, 0x0f, 2, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5})
	f.Add([]byte{0, 0, 0, 0, 0})
	// A star whose hub hears every leaf's announcement in phase 0.
	star := []byte{20, 0xfe, 0xff, 0, 1}
	for v := byte(1); v < 20; v++ {
		star = append(star, 0, v)
	}
	f.Add(star)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, centers, deg, delta, ok := decodeNNFuzz(data)
		if !ok {
			return
		}
		n := g.N()
		want, wantT, _ := referenceNearNeighbors(g, centers, deg, delta, NewTranscriptRecorder(n))

		central, centralT := CentralNearNeighborsRec(g, centers, deg, delta, NewTranscriptRecorder(n))
		if d := DiffNNTables(n, delta, central, centralT, want, wantT); d != "" {
			t.Fatalf("central vs reference (deg %d, delta %d, centers %v): %s", deg, delta, centers, d)
		}

		isC := make([]bool, n)
		for _, c := range centers {
			isC[c] = true
		}
		rec := NewTranscriptRecorder(n)
		sim, err := congest.NewUniform(g, NewNearNeighborsRec(func(v int) bool { return isC[v] }, deg, delta, rec), congest.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.RunContext(context.Background(), NearNeighborsRounds(deg, delta)); err != nil {
			t.Fatal(err)
		}
		if d := DiffNNTables(n, delta, ExtractNN(sim), rec.Finish(), want, wantT); d != "" {
			t.Fatalf("distributed vs reference (deg %d, delta %d, centers %v): %s", deg, delta, centers, d)
		}
		if _, d := nnSkipsMatchTwin(g, centers, deg, delta); d != "" {
			t.Fatalf("skipped phases (deg %d, delta %d, centers %v): %s", deg, delta, centers, d)
		}
	})
}

// decodeNNFuzz decodes a near-neighbors fuzz input: a graph on n <= 48
// vertices from data[0] and the byte pairs from data[5] on, a 16-bit
// center mask (data[1:3]), deg (data[3]) and delta (data[4]).
func decodeNNFuzz(data []byte) (g *graph.Graph, centers []int, deg int, delta int32, ok bool) {
	if len(data) < 5 {
		return nil, nil, 0, 0, false
	}
	n := 2 + int(data[0])%47
	mask := uint64(data[1]) | uint64(data[2])<<8
	deg = 1 + int(data[3])%4
	delta = int32(1 + int(data[4])%5)
	b := graph.NewBuilder(n)
	for i := 5; i+1 < len(data); i += 2 {
		if u, v := int(data[i])%n, int(data[i+1])%n; u != v {
			b.Add(u, v)
		}
	}
	for v := 0; v < n; v++ {
		// The 16-bit mask repeats over larger vertex sets.
		if mask&(1<<(v%16)) != 0 {
			centers = append(centers, v)
		}
	}
	return b.Build(), centers, deg, delta, true
}

// FuzzReplayNearNeighborsVsReference patches a decoded graph and center
// set — 1–4 vertex pairs toggled, one vertex's centerhood flipped — and
// requires the replay from the first run to reproduce the reference on
// the patched inputs, and the replay back to reproduce the first run.
// The input is data[0] (the toggle count), data[1] (the flipped vertex)
// and the toggled pairs, followed by a FuzzNearNeighborsVsReference input.
func FuzzReplayNearNeighborsVsReference(f *testing.F) {
	f.Add([]byte{1, 3, 0, 5, 10, 0xff, 0x0f, 2, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5})
	f.Add([]byte{3, 0, 1, 2, 3, 4, 5, 6, 0, 0, 0, 0, 0})
	// A replay that ignores a clean neighbor's list changes leaves
	// vertex 5's row empty on the way back.
	f.Add([]byte("100800\x0f20087\xf9\v8"))
	// A replay that ignores a vertex's own prev-list changes keeps a
	// stale row at vertex 7 on the way back.
	f.Add([]byte("117200X0A007082"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k := 1 + int(data[0])%4
		if len(data) < 2+2*k {
			return
		}
		g, centers, deg, delta, ok := decodeNNFuzz(data[2+2*k:])
		if !ok {
			return
		}
		n := g.N()
		toggled := make(map[[2]int]bool)
		for i := 2; i < 2+2*k; i += 2 {
			u, v := int(data[i])%n, int(data[i+1])%n
			if u != v {
				e := [2]int{min(u, v), max(u, v)}
				toggled[e] = !toggled[e]
			}
		}
		b := graph.NewBuilder(n)
		g.Edges(func(u, v int) {
			if !toggled[[2]int{u, v}] {
				b.Add(u, v)
			}
		})
		var seeds []int
		for e, on := range toggled {
			if on {
				seeds = append(seeds, e[0], e[1])
				if !g.HasEdge(e[0], e[1]) {
					b.Add(e[0], e[1])
				}
			}
		}
		g2 := b.Build()
		flip := int(data[1]) % n
		centers2 := slices.DeleteFunc(slices.Clone(centers), func(c int) bool { return c == flip })
		if len(centers2) == len(centers) {
			centers2 = append(centers2, flip)
			slices.Sort(centers2)
		}

		first := refRun(g, centers, deg, delta)
		want := refRun(g2, centers2, deg, delta)
		got, _ := ReplayNearNeighbors(g2, &first, centers2, seeds, deg, delta)
		if d := DiffNNTables(n, delta, got.NN, got.Transcript, want.NN, want.Transcript); d != "" {
			t.Fatalf("replay vs reference (deg %d, delta %d, centers %v -> %v, toggled %v): %s",
				deg, delta, centers, centers2, toggled, d)
		}
		back, _ := ReplayNearNeighbors(g, &got, centers, seeds, deg, delta)
		if d := DiffNNTables(n, delta, back.NN, back.Transcript, first.NN, first.Transcript); d != "" {
			t.Fatalf("replay back vs reference (deg %d, delta %d, centers %v -> %v, toggled %v): %s",
				deg, delta, centers2, centers, toggled, d)
		}
	})
}

// refRun is the reference's run on g.
func refRun(g *graph.Graph, centers []int, deg int, delta int32) NNRun {
	nn, tr, _ := referenceNearNeighbors(g, centers, deg, delta, NewTranscriptRecorder(g.N()))
	return NNRun{Centers: centers, NN: nn, Transcript: tr}
}

// NNSkipsMatchTwin exports nnSkipsMatchTwin to the external test package.
var NNSkipsMatchTwin = nnSkipsMatchTwin

// nnSkipsMatchTwin runs the distributed program round by round and the
// centralized twin on the same inputs, and compares, phase by phase, the
// vertices whose hearings the program ignores (it went deaf in the
// rounds that deliver them) with the vertices the twin leaves out of the
// phase's receivers. It returns the number of skipped (vertex, phase)
// pairs and a description of the first difference, or "".
func nnSkipsMatchTwin(g *graph.Graph, centers []int, deg int, delta int32) (skipped int, diff string) {
	n := g.N()
	isC := make([]bool, n)
	for _, c := range centers {
		isC[c] = true
	}
	want := make([][]bool, delta+1) // want[p][v]: the twin skips v at phase p
	for p := range want {
		want[p] = make([]bool, n)
		for v := range want[p] {
			want[p][v] = true
		}
	}
	replayNearNeighbors(g, &NNRun{}, centers, nil, deg, delta, nil, func(p int32, receivers []int32) {
		for _, u := range receivers {
			want[p][u] = false
		}
	})

	sim, err := congest.NewUniform(g, NewNearNeighborsRec(func(v int) bool { return isC[v] }, deg, delta, nil), congest.Options{})
	if err != nil {
		return 0, err.Error()
	}
	ctx := context.Background()
	phaseLen := deg + 2
	for p := int32(1); p <= delta; p++ {
		// Phase p's hearings arrive in round 1 (p = 1) or from send slot
		// 1 of the protocol phase before on; that slot decides deafness.
		decide := 1
		if p > 1 {
			decide = int(p-2)*phaseLen + 3
		}
		if err := sim.RunContext(ctx, decide-sim.Round()); err != nil {
			return 0, err.Error()
		}
		for v := 0; v < n; v++ {
			got := sim.Program(v).(*NearNeighbors).deaf
			if got != want[p][v] {
				return skipped, fmt.Sprintf("phase %d vertex %d: distributed skips %v, twin skips %v", p, v, got, want[p][v])
			}
			if got {
				skipped++
			}
		}
	}
	return skipped, ""
}
