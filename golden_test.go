package nearspan_test

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"nearspan/internal/baseline"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// testdata/golden_spanners.json records FNV-1a fingerprints of the
// spanners the pre-columnar (map[Edge]bool) implementation produced for
// a matrix of graphs, parameter sets, and algorithms. The columnar data
// plane must reproduce every spanner bit for bit: the stores changed,
// the decisions must not. Regenerate the file only for a change that is
// *supposed* to alter spanner contents, and say so in the commit.

type goldenEntry struct {
	Name  string  `json:"name"`
	Algo  string  `json:"algo"`
	Eps   float64 `json:"eps"`
	Kappa int     `json:"kappa"`
	Rho   float64 `json:"rho"`
	Edges int     `json:"edges"`
	Hash  string  `json:"hash"`
}

// goldenFingerprint hashes the canonical (u, v ascending) edge list —
// the shared graph.Fingerprint, which the build service also reports.
func goldenFingerprint(g *graph.Graph) (int, string) {
	return graph.Fingerprint(g)
}

func goldenGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	return map[string]*graph.Graph{
		"gnp-256":     gen.GNP(256, 16.0/256, 256, true),
		"gnp-600":     gen.GNP(600, 20.0/600, 42, true),
		"grid-24x24":  gen.Grid(24, 24),
		"torus-16x16": gen.Torus(16, 16),
		"tree-300":    gen.RandomTree(300, 9),
		"communities": gen.Communities(6, 40, 0.3, 0.01, 5),
		"hypercube-8": gen.Hypercube(8),
	}
}

func TestGoldenSpannersMatchMapImplementation(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_spanners.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("empty golden file")
	}
	graphs := goldenGraphs(t)
	for _, e := range entries {
		g := graphs[e.Name]
		if g == nil {
			t.Fatalf("golden entry for unknown graph %q", e.Name)
		}
		var spanner *graph.Graph
		switch e.Algo {
		case "paper":
			p, err := params.New(e.Eps, e.Kappa, e.Rho, g.N())
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Build(context.Background(), g, p, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			spanner = res.Spanner
		case "en17":
			p, err := baseline.NewSchedule(e.Eps, e.Kappa, e.Rho, g.N())
			if err != nil {
				t.Fatal(err)
			}
			res, err := baseline.BuildEN17(g, p, 7)
			if err != nil {
				t.Fatal(err)
			}
			spanner = res.Spanner
		case "ep01":
			p, err := baseline.NewSchedule(e.Eps, e.Kappa, e.Rho, g.N())
			if err != nil {
				t.Fatal(err)
			}
			res, err := baseline.BuildEP01(g, p)
			if err != nil {
				t.Fatal(err)
			}
			spanner = res.Spanner
		case "baswana-sen":
			h, err := baseline.BuildBaswanaSen(g, e.Kappa, 11)
			if err != nil {
				t.Fatal(err)
			}
			spanner = h
		default:
			t.Fatalf("golden entry with unknown algo %q", e.Algo)
		}
		m, hash := goldenFingerprint(spanner)
		if m != e.Edges || hash != e.Hash {
			t.Errorf("%s/%s eps=%.4f kappa=%d rho=%.2f: spanner drifted from the map implementation: got (m=%d, %s), golden (m=%d, %s)",
				e.Name, e.Algo, e.Eps, e.Kappa, e.Rho, m, hash, e.Edges, e.Hash)
		}
	}
}
