package protocols

import (
	"math/rand"
	"testing"
	"testing/quick"

	"nearspan/internal/graph"
)

func randomConnected(r *rand.Rand, maxN int) *graph.Graph {
	n := 4 + r.Intn(maxN-3)
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		if err := b.AddEdge(v, r.Intn(v)); err != nil {
			panic(err)
		}
	}
	extra := r.Intn(2 * n)
	for i := 0; i < extra; i++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !b.HasEdge(u, v) {
			if err := b.AddEdge(u, v); err != nil {
				panic(err)
			}
		}
	}
	return b.Build()
}

// Ruling set invariants hold for random graphs, member sets, and
// parameters (the central derandomization guarantee, Theorem 2.2).
func TestPropRulingSetInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 36)
		var members []int
		for v := 0; v < g.N(); v++ {
			if r.Intn(2) == 0 {
				members = append(members, v)
			}
		}
		q := int32(1 + r.Intn(4))
		c := 2 + r.Intn(3)
		sel := CentralRulingSet(g, members, q, c, g.N())
		sepOK, domOK := VerifyRulingSet(g, members, sel, q, int32(c)*q)
		return sepOK && domOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Theorem 2.1(1) as a property: popularity detection matches the ground
// truth count for random graphs, center sets and thresholds.
func TestPropPopularityGroundTruth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 30)
		var centers []int
		isC := make(map[int]bool)
		for v := 0; v < g.N(); v++ {
			if r.Intn(3) > 0 {
				centers = append(centers, v)
				isC[v] = true
			}
		}
		deg := 1 + r.Intn(5)
		delta := int32(1 + r.Intn(4))
		res, _ := CentralNearNeighborsRec(g, centers, deg, delta, nil)
		for _, c := range centers {
			dist := g.BFSBounded(c, delta)
			count := 0
			for v := 0; v < g.N(); v++ {
				if v != c && isC[v] && dist[v] <= delta {
					count++
				}
			}
			if res.Popular[c] != (count >= deg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Theorem 2.1(2) as a property: unpopular centers know every center
// within delta at exact distance.
func TestPropUnpopularExactness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomConnected(r, 28)
		var centers []int
		isC := make(map[int]bool)
		for v := 0; v < g.N(); v++ {
			if r.Intn(2) == 0 {
				centers = append(centers, v)
				isC[v] = true
			}
		}
		deg := 2 + r.Intn(4)
		delta := int32(2 + r.Intn(3))
		res, _ := CentralNearNeighborsRec(g, centers, deg, delta, nil)
		for _, c := range centers {
			if res.Popular[c] {
				continue
			}
			dist := g.BFSBounded(c, delta)
			for v := 0; v < g.N(); v++ {
				if v == c || !isC[v] || dist[v] > delta {
					continue
				}
				if got, ok := res.DistTo(c, int64(v)); !ok || got != dist[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Digit decomposition round-trips IDs for any base/position count that
// covers the ID space.
func TestPropDigitsRoundTrip(t *testing.T) {
	f := func(id uint16, cRaw uint8) bool {
		c := 1 + int(cRaw%4)
		b := DigitBase(1<<16, c)
		recon := int64(0)
		mul := int64(1)
		for pos := 0; pos < c; pos++ {
			recon += digit(int64(id), pos, b) * mul
			mul *= b
		}
		return recon == int64(id)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
