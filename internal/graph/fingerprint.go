package graph

import (
	"fmt"
	"hash/fnv"

	"nearspan/internal/rng"
)

// Fingerprint returns the edge count and the FNV-1a hash of the
// canonical (u, v ascending) edge list — the bit-identity witness used
// by the golden-spanner fixtures and reported by the build service, so
// a spanner built anywhere (any mode, any machine, any daemon) can be
// compared for exact equality by exchanging 16 hex characters instead
// of edge lists.
func Fingerprint(g *Graph) (m int, hash string) {
	h := fnv.New64a()
	buf := make([]byte, 8)
	g.Edges(func(u, v int) {
		writeEdge(h, buf, u, v)
	})
	return g.M(), fmt.Sprintf("%016x", h.Sum64())
}

// FingerprintSampled is the scale-regime fingerprint: it hashes only the
// edges incident to a deterministic sample of min(samples, n) vertices,
// in the same canonical (u, v ascending) order Fingerprint uses. Two
// graphs with equal sampled fingerprints (same samples, same seed) agree
// on every edge touching the sample — a witness sized O(sample volume)
// instead of O(m), for graphs too large for the full golden machinery.
//
// The sample is the first min(samples, n) entries of the seeded
// Fisher–Yates permutation of [0, n), so it is a pure function of
// (n, samples, seed): independent builders compare fingerprints without
// exchanging the sample. When samples >= n every vertex is sampled and
// the result equals Fingerprint exactly (tested), so the sampled mode
// degrades to the full witness rather than to a different hash.
func FingerprintSampled(g *Graph, samples int, seed uint64) (m int, hash string) {
	n := g.N()
	if samples > n {
		samples = n
	}
	if samples < 0 {
		samples = 0
	}
	perm := rng.New(seed).Perm(n)
	sampled := make([]bool, n)
	for _, v := range perm[:samples] {
		sampled[v] = true
	}
	h := fnv.New64a()
	buf := make([]byte, 8)
	g.Edges(func(u, v int) {
		if sampled[u] || sampled[v] {
			writeEdge(h, buf, u, v)
			m++
		}
	})
	return m, fmt.Sprintf("%016x", h.Sum64())
}

func writeEdge(h interface{ Write([]byte) (int, error) }, buf []byte, u, v int) {
	buf[0] = byte(u)
	buf[1] = byte(u >> 8)
	buf[2] = byte(u >> 16)
	buf[3] = byte(u >> 24)
	buf[4] = byte(v)
	buf[5] = byte(v >> 8)
	buf[6] = byte(v >> 16)
	buf[7] = byte(v >> 24)
	h.Write(buf)
}
