// Command spanner builds a near-additive spanner of a generated workload
// graph, verifies its guarantees, and prints the per-phase statistics —
// the CLI face of the library.
//
// Examples:
//
//	spanner -graph gnp -n 600 -p 0.03 -eps 0.33 -kappa 3 -rho 0.49
//	spanner -graph torus -n 576 -mode distributed -csv
//	spanner -graph gnp -n 2000 -mode distributed
//	spanner -graph communities -n 500 -verify=false
//	spanner -graph grid -n 400 -query "0:399,0:210,5:86"
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"nearspan"
	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/stats"
	"nearspan/internal/trace"
)

func main() {
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "spanner: interrupted (%v) — no partial spanner is ever emitted\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "spanner: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		family  = flag.String("graph", "gnp", "workload family: gnp|grid|torus|communities|regular|pa|hypercube|path")
		input   = flag.String("input", "", "read the graph from an edge-list file instead of generating (header 'n m', one 'u v' per line)")
		n       = flag.Int("n", 400, "number of vertices (rounded to the family's shape)")
		p       = flag.Float64("p", 0.03, "edge probability for gnp")
		seed    = flag.Uint64("seed", 1, "workload seed")
		eps     = flag.Float64("eps", 1.0/3, "internal epsilon (0 < eps <= 1)")
		kappa   = flag.Int("kappa", 3, "size exponent kappa (>= 2)")
		rho     = flag.Float64("rho", 0.49, "round exponent rho (1/kappa <= rho < 1/2)")
		mode    = flag.String("mode", "centralized", "execution mode: centralized|distributed")
		verify  = flag.Bool("verify", true, "verify the stretch bound exactly (O(n(m_G+m_H)))")
		csv     = flag.Bool("csv", false, "emit phase table as CSV")
		phases  = flag.Bool("phases", false, "print the per-phase protocol-step breakdown (rounds, messages, peak round traffic)")
		timeout = flag.Duration("timeout", 0, "abort the build after this duration (0 = no limit); cancellation lands at a round boundary")
		query   = flag.String("query", "", "comma-separated u:v pairs answered from the built spanner (batched through the query pool)")
		deltaK  = flag.Int("delta", 0, "after the build, apply a random edge delta of this many delete+insert pairs through the incremental rebuild and report its cost against a from-scratch build of the patched graph")
	)
	flag.Parse()

	// SIGINT cancels the build at the next simulated round boundary —
	// the construction aborts cleanly instead of dying mid-round.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var g *nearspan.Graph
	var err error
	if *input != "" {
		g, err = readGraphFile(*input)
	} else {
		g, err = makeGraph(*family, *n, *p, *seed)
	}
	if err != nil {
		return err
	}
	cfg := nearspan.Config{Eps: *eps, Kappa: *kappa, Rho: *rho, KeepClusters: false,
		KeepRebuildState: *deltaK > 0}
	switch *mode {
	case "centralized":
		cfg.Mode = nearspan.CentralizedMode
	case "distributed":
		cfg.Mode = nearspan.DistributedMode
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	buildStart := time.Now()
	res, err := nearspan.BuildSpannerContext(ctx, g, cfg)
	if err != nil {
		return err
	}
	buildDur := time.Since(buildStart)
	pp := res.Params
	source := *family
	if *input != "" {
		source = *input
	}
	fmt.Printf("graph: %s n=%d m=%d\n", source, g.N(), g.M())
	fmt.Printf("params: %s\n", pp)
	fmt.Printf("spanner: %d edges (%.1f%% of G), guarantee (1+%.3f)d + %d\n",
		res.EdgeCount(), 100*float64(res.EdgeCount())/math.Max(1, float64(g.M())),
		pp.EpsPrime(), pp.BetaInt())
	if !pp.GuaranteeOK() {
		fmt.Printf("regime: eps=%.3g, rho^=%.3g: the guarantee is checked by -verify, not implied by the theorem (it needs eps <= 0.1 and rho^ >= 10 eps)\n",
			pp.Eps, 1/float64(pp.C))
	}
	if cfg.Mode == nearspan.DistributedMode {
		fmt.Printf("CONGEST: %d rounds, %d messages\n", res.TotalRounds, res.Messages)
	}

	t := stats.NewTable("phases", "i", "deg_i", "delta_i", "|P_i|", "|W_i|", "|RS_i|", "|U_i|",
		"edges SC", "edges IC", "rounds")
	for _, ph := range res.Phases {
		t.Add(stats.Itoa(ph.Index), stats.Itoa(ph.Deg), stats.Itoa(int(ph.Delta)),
			stats.Itoa(ph.Clusters), stats.Itoa(ph.Popular), stats.Itoa(ph.RulingSet),
			stats.Itoa(ph.Unclustered), stats.Itoa(ph.EdgesSC), stats.Itoa(ph.EdgesIC),
			stats.Itoa(ph.Rounds()))
	}
	if *csv {
		t.CSV(os.Stdout)
	} else {
		t.Render(os.Stdout)
	}

	if *phases {
		fmt.Printf("\nper-phase protocol steps")
		if cfg.Mode != nearspan.DistributedMode {
			fmt.Printf(" (centralized mode: schedule budgets, no messages)")
		}
		fmt.Println(":")
		fmt.Print(trace.StepTable(res.Steps))
	}

	if *verify {
		alpha, beta := pp.Guarantee()
		rep := nearspan.VerifyStretch(g, res.Spanner, alpha, beta)
		fmt.Printf("verification: %s\n", rep)
		if !rep.OK() {
			return fmt.Errorf("stretch bound violated")
		}
	}

	if *query != "" {
		pairs, err := parseQueries(*query, g.N())
		if err != nil {
			return err
		}
		pool := nearspan.NewOraclePool(res.Spanner, nearspan.OraclePoolOptions{})
		dists := pool.PairsBatch(pairs)
		for i, q := range pairs {
			if d := dists[i]; d == nearspan.Infinity {
				fmt.Printf("query %d:%d -> unreachable\n", q[0], q[1])
			} else {
				fmt.Printf("query %d:%d -> %d\n", q[0], q[1], d)
			}
		}
	}

	if *deltaK > 0 {
		return runDelta(ctx, res, cfg, *deltaK, *seed, buildDur)
	}
	return nil
}

// runDelta applies one random edge delta through the incremental
// rebuild, reports its cost against the initial build, and proves the
// tentpole guarantee on the spot: the rebuilt spanner's fingerprint is
// required to be bit-identical to a from-scratch build of the patched
// graph.
func runDelta(ctx context.Context, prev *nearspan.Result, cfg nearspan.Config, k int, seed uint64, buildDur time.Duration) error {
	batch := delta.RandomBatch(prev.Rebuild.Graph, k, seed^0xD317A)
	t0 := time.Now()
	res, err := nearspan.RebuildSpannerContext(ctx, prev, batch, cfg)
	if err != nil {
		return err
	}
	rebuildDur := time.Since(t0)
	fmt.Printf("delta: %d ops (%d delete, %d insert) -> incremental, %d vertices replayed\n",
		batch.Size(), len(batch.Delete), len(batch.Insert), res.Tracked)
	fmt.Printf("delta: rebuild %v vs build %v (%.1fx)\n",
		rebuildDur.Round(time.Microsecond), buildDur.Round(time.Microsecond),
		float64(buildDur)/float64(rebuildDur))

	scratch, err := nearspan.BuildSpannerContext(ctx, res.Rebuild.Graph, cfg)
	if err != nil {
		return err
	}
	m1, fp1 := graph.Fingerprint(res.Spanner)
	m2, fp2 := graph.Fingerprint(scratch.Spanner)
	if m1 != m2 || fp1 != fp2 {
		return fmt.Errorf("delta rebuild diverged from from-scratch build: %s (%d edges) vs %s (%d edges)",
			fp1, m1, fp2, m2)
	}
	fmt.Printf("delta: verified bit-identical to from-scratch build of the patched graph (%s)\n", fp1)
	return nil
}

// parseQueries parses "u:v,u:v" into pairs, validating against n.
func parseQueries(s string, n int) ([][2]int, error) {
	parts := strings.Split(s, ",")
	pairs := make([][2]int, 0, len(parts))
	for _, part := range parts {
		uv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("query %q: want u:v", part)
		}
		u, err := strconv.Atoi(uv[0])
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", part, err)
		}
		v, err := strconv.Atoi(uv[1])
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", part, err)
		}
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("query %q: vertex out of range [0,%d)", part, n)
		}
		pairs = append(pairs, [2]int{u, v})
	}
	return pairs, nil
}

func makeGraph(family string, n int, p float64, seed uint64) (*nearspan.Graph, error) {
	switch family {
	case "gnp":
		return nearspan.GNP(n, p, seed, true), nil
	case "grid":
		side := intSqrt(n)
		return nearspan.Grid(side, side), nil
	case "torus":
		side := intSqrt(n)
		return nearspan.Torus(side, side), nil
	case "communities":
		k := n / 50
		if k < 2 {
			k = 2
		}
		return nearspan.Communities(k, n/k, 0.3, 0.002, seed), nil
	case "regular":
		d := 8
		if n*d%2 != 0 {
			d = 7
		}
		return nearspan.RandomRegular(n, d, seed)
	case "pa":
		return nearspan.PreferentialAttachment(n, 3, seed)
	case "hypercube":
		d := 0
		for 1<<d < n {
			d++
		}
		return nearspan.Hypercube(d), nil
	case "path":
		return nearspan.Path(n), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", family)
	}
}

func readGraphFile(path string) (*nearspan.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nearspan.ReadEdgeList(f)
}

func intSqrt(n int) int {
	s := 1
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}
