// Command experiments runs the full reproduction suite: Table 1, Table 2,
// the Figure 1-8 structural experiments, the quantitative per-lemma
// claims, and the ablations (README.md, "Command-line tools").
//
// The suite fans its configuration grids over the shared execution
// runtime, so distributed builds for independent workloads run
// concurrently. Interrupting with SIGINT (or exceeding -timeout) cancels
// the in-flight builds at a round boundary; every section already
// written to stdout is complete and valid — partial results are never
// lost to an interrupt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"nearspan/internal/experiments"
)

// gate compares the fresh report at freshPath against the committed
// baseline at basePath and fails on a >25% ns/op regression in any
// gated benchmark family (experiments.GatedPrefixes).
func gate(freshPath, basePath string) error {
	load := func(path string) (experiments.BenchReport, error) {
		f, err := os.Open(path)
		if err != nil {
			return experiments.BenchReport{}, err
		}
		defer f.Close()
		return experiments.LoadBenchReport(f)
	}
	baseline, err := load(basePath)
	if err != nil {
		return err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return err
	}
	if regressions := experiments.BenchGate(baseline, fresh, 0.25); len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "perf gate: %s\n", r)
		}
		return fmt.Errorf("perf gate: %d benchmark(s) regressed vs %s", len(regressions), basePath)
	}
	fmt.Printf("perf gate passed vs %s\n", basePath)
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "run the reduced workload suite")
	timeout := flag.Duration("timeout", 0, "abort the suite after this duration (0 = no limit); sections already printed stay valid")
	benchJSON := flag.String("bench-json", "",
		"instead of the suite, run the assembly + engine + frontier benchmarks and write the machine-readable perf baseline (ns/op, B/op, allocs/op) to this path")
	cpu := flag.Int("cpu", runtime.GOMAXPROCS(0),
		"GOMAXPROCS for the -bench-json run; the value actually used is recorded as go_maxprocs in the report")
	benchGate := flag.String("bench-gate", "",
		"with -bench-json: compare the fresh report against this baseline and exit nonzero on a >25% ns/op regression in any gated benchmark family")
	scale := flag.Int("scale", 0,
		"instead of the suite, run one scale-regime workload near this many edges (streamed GNP through the full distributed build) and print its memory/time report; try 1000000 locally, 10000000 for the full smoke")
	scaleVerify := flag.Int("scale-verify", 0,
		"with -scale: run a sampled stretch verification from this many BFS sources after the build")
	deltaChurn := flag.Int("delta-churn", 0,
		"instead of the suite, run this many incremental-rebuild churn steps (random edge deltas chained through core.Rebuild) on a streamed GNP workload and print the per-step speedup report")
	deltaEdges := flag.Int("delta-edges", 0,
		"with -delta-churn: approximate edge count of the churn workload (default 250000)")
	deltaOps := flag.Int("delta-ops", 0,
		"with -delta-churn: delete+insert pairs per churn batch (default 8)")
	deltaVerify := flag.Bool("delta-verify", true,
		"with -delta-churn: rebuild the final patched graph from scratch and require a bit-identical fingerprint")
	flag.Parse()
	if *benchGate != "" && *benchJSON == "" {
		fmt.Fprintln(os.Stderr, "experiments: -bench-gate requires -bench-json (nothing would be gated)")
		os.Exit(1)
	}
	if *benchJSON != "" {
		if *cpu > 0 {
			runtime.GOMAXPROCS(*cpu)
		}
		f, err := os.Create(*benchJSON)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		err = experiments.BenchJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote perf baseline to %s (GOMAXPROCS %d)\n", *benchJSON, runtime.GOMAXPROCS(0))
		if *benchGate != "" {
			if err := gate(*benchJSON, *benchGate); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}
	if *deltaChurn > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		res, err := experiments.DeltaChurnRun(ctx, experiments.DeltaChurnSpec{
			TargetEdges: *deltaEdges,
			Steps:       *deltaChurn,
			Ops:         *deltaOps,
			Verify:      *deltaVerify,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteDeltaChurnReport(os.Stdout, res)
		return
	}
	if *scale > 0 {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		res, err := experiments.ScaleRun(ctx, experiments.ScaleSpec{
			TargetEdges:   *scale,
			VerifySamples: *scaleVerify,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		experiments.WriteScaleReport(os.Stdout, res)
		return
	}

	cfgs := experiments.DefaultConfigs()
	if *quick {
		cfgs = experiments.QuickConfigs()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if err := experiments.Suite(ctx, os.Stdout, cfgs); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "experiments: interrupted (%v) — sections above are complete; the in-flight section was abandoned\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
