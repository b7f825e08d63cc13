// Command spannerbench is the end-to-end benchmark of spannerd. It
// starts the daemon in-process on a loopback listener and a fresh data
// dir, drives it from one closed-loop HTTP client through a workload
// generated from --seed, checks every output it can, restarts the
// daemon on the data it wrote, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 1 the run instead reports per-layer metrics: a shorter
// HTTP run gives the service's own figures, then the same generated
// inputs go straight into the layers' public functions (gen, core,
// graph, store, oracle, delta) with spans recorded around each call.
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash spannerbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"nearspan/internal/sched"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// workdir holds the run's temporary data dirs and the span files.
	workdir string
	golden  string
	// spans is where a traced run writes its spans.
	spans string
	procs int
}

// metric is one reported figure; note says what it was computed from.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is one run's verdict and figures.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	failures  []string
	// ruler is the reference kernel the run timed alongside its work;
	// scaleNote says which figures it scaled.
	ruler     *ruler
	scaleNote string
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "spannerbench: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg, os.Stdout)
	interrupted := ctx.Err() != nil
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spannerbench: %v\n", err)
		if interrupted {
			os.Exit(130)
		}
		os.Exit(1)
	}
	if err := printJSON(os.Stdout, res); err != nil {
		fmt.Fprintf(os.Stderr, "spannerbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("spannerbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: build, road-query or churn")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; every generated input derives from it")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "amount of timed work: rate × seconds steps of the workload")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for the run's temporary data dirs and span files")
	fs.StringVar(&cfg.golden, "golden", filepath.Join("testdata", "golden_spanners.json"), "golden spanner fixture")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want build, road-query or churn)", cfg.workload)
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		return cfg, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg.trace = trace == 1
	cfg.spans = filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	cfg.procs = min(2, runtime.NumCPU())
	return cfg, nil
}

// run executes one benchmark run. Every server it starts is drained and
// its listener closed, and its temporary directory removed, before run
// returns — on success, on a failed check, on error and on
// cancellation.
func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w := workloads[cfg.workload]
	prev := runtime.GOMAXPROCS(cfg.procs)
	defer runtime.GOMAXPROCS(prev)
	fmt.Fprintf(out, "# spannerbench workload=%s seed=%d seconds=%g trace=%t gomaxprocs=%d num_cpu=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, cfg.procs, runtime.NumCPU(), runtime.Version(), commit())
	if _, err := os.Stat(cfg.golden); err != nil {
		return nil, fmt.Errorf("golden fixture: %w", err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rt := sched.New(cfg.procs)
	defer rt.Close()

	var res *result
	if cfg.trace {
		res, err = runTraced(ctx, cfg, w, dir, rt, out)
	} else {
		res, err = runE2E(ctx, cfg, w, dir, rt)
	}
	if err != nil {
		return nil, err
	}
	for _, m := range res.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no samples (%s)", m.name, m.note)
		}
		fmt.Fprintf(out, "%-34s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	if r := res.ruler; r != nil {
		fmt.Fprintf(out, "reference kernel: median %.1f us over %d searches, scale factor %.4f (%s)\n",
			us(refNominal)/r.factor(), len(r.samples), r.factor(), res.scaleNote)
	}
	ratio := 0.0
	if res.attempted > 0 {
		ratio = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(out, "fail_ratio %g (%d of %d requests)\n", ratio, res.failed, res.attempted)
	for _, f := range res.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	return res, nil
}

func runE2E(ctx context.Context, cfg config, w workload, dir string, rt *sched.Runtime) (*result, error) {
	o, err := runHTTP(ctx, cfg, w, dir, rt, phasePlan{steps: stepsFor(w, cfg.seconds), setups: 3, restarts: 5, restartTime: 1500 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	return &result{
		correct: o.checks.ok(), attempted: o.s.attempted, failed: o.s.failed,
		metrics: e2eMetrics(w, o), failures: o.checks.failures,
		ruler: o.ruler, scaleNote: "times above are scaled, raw in each note",
	}, nil
}

func printJSON(out io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
