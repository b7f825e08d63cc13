package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// BenchResult is one benchmark's measurement in the machine-readable
// perf baseline (BENCH_core.json).
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// BenchReport is the document written by `cmd/experiments -bench-json`.
type BenchReport struct {
	GeneratedBy string        `json:"generated_by"`
	GoVersion   string        `json:"go_version"`
	MaxProcs    int           `json:"go_maxprocs"`
	Benchmarks  []BenchResult `json:"benchmarks"`
}

// ParseBench converts the output of
//
//	go test -run '^$' -bench '^BenchmarkBaseline$' -benchmem -cpu N .
//
// into a BenchReport: one row per result line, named without its
// top-level benchmark and without the "-N" suffix testing appends when
// GOMAXPROCS is N ≠ 1. Row names may end in digits themselves
// (engine/gnp-1024), so the suffix is N only when every name ends in
// the same "-N"; that N is the report's go_maxprocs, and a run whose
// names share no suffix ran at GOMAXPROCS 1. The whole run has rows
// ending in a non-digit (assembly/columnar/500k), so this is exact; a
// run filtered to the 1024-vertex engine rows at GOMAXPROCS 1 would
// read as "-1024". Units other than ns/op, B/op and allocs/op are
// ignored, as are lines that are not results (goos:, pkg:, PASS, ok).
// A FAIL line, a repeated row or no rows at all is an error. go_version
// is the converter's own: the go command that ran the benchmarks does
// not print its version.
func ParseBench(r io.Reader) (BenchReport, error) {
	rep := BenchReport{
		GeneratedBy: "go test -bench '^BenchmarkBaseline$' -benchmem | cmd/experiments -bench-json",
		GoVersion:   runtime.Version(),
		MaxProcs:    1,
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "FAIL") || strings.Contains(line, "--- FAIL") {
			return BenchReport{}, fmt.Errorf("bench output: benchmark failed: %s", line)
		}
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		res := BenchResult{Name: f[0], Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return BenchReport{}, fmt.Errorf("bench output: %q: %w", line, err)
			}
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return BenchReport{}, fmt.Errorf("bench output: %w", err)
	}
	if len(rep.Benchmarks) == 0 {
		return BenchReport{}, fmt.Errorf("bench output: no benchmark results")
	}
	suffix := procsSuffix(rep.Benchmarks)
	if suffix != "" {
		rep.MaxProcs, _ = strconv.Atoi(suffix[1:])
	}
	seen := make(map[string]bool, len(rep.Benchmarks))
	for i := range rep.Benchmarks {
		name := strings.TrimSuffix(rep.Benchmarks[i].Name, suffix)
		if _, sub, ok := strings.Cut(name, "/"); ok {
			name = sub
		}
		if seen[name] {
			return BenchReport{}, fmt.Errorf("bench output: row %s appears twice (run with one -count and one -cpu value)", name)
		}
		seen[name] = true
		rep.Benchmarks[i].Name = name
	}
	return rep, nil
}

// procsSuffix returns the "-N" (N ≥ 2) that every result name ends in,
// or "" if they share none.
func procsSuffix(rows []BenchResult) string {
	name := rows[0].Name
	i := strings.LastIndexByte(name, '-')
	if n, err := strconv.Atoi(name[i+1:]); i < 0 || err != nil || n < 2 {
		return ""
	}
	for _, r := range rows[1:] {
		if !strings.HasSuffix(r.Name, name[i:]) {
			return ""
		}
	}
	return name[i:]
}

// GatedPrefixes names the benchmark families the CI perf gate compares
// against the committed baseline. Rows outside these families are
// recorded but not gated: the one-off centralized reference, the
// oracle p50/p99 rows (tail quantiles — one GC pause moves
// the p99 past any reasonable gate), and the oracle scaling rows
// (parallel cost depends on the hardware core count, which the gate
// cannot normalize for). The mean-based oracle rows are gated like
// every other family.
var GatedPrefixes = []string{
	"assembly/", "engine/", "frontier/", "scale/", "delta/",
	"oracle/warm-source/", "oracle/batch/", "oracle/point/bidi-",
}

// LoadBenchReport reads a BenchReport written by `cmd/experiments -bench-json`.
func LoadBenchReport(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return BenchReport{}, fmt.Errorf("bench report: %w", err)
	}
	return rep, nil
}

// gatedName reports whether a benchmark row belongs to a gated family.
func gatedName(name string) bool {
	for _, p := range GatedPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// BenchGate compares a fresh report against the committed baseline and
// returns one message per gate failure: a gated benchmark whose ns/op
// regressed by more than maxRegress (0.25 = +25%), a gated baseline row
// missing from the fresh report (silently lost coverage), or a
// go_maxprocs mismatch between the reports (rows measured at
// different parallelism are not comparable — rerun with -cpu matching
// the baseline). A fresh row without a baseline row is fine — a new
// benchmark cannot fail the gate before its baseline lands.
func BenchGate(baseline, current BenchReport, maxRegress float64) []string {
	var failures []string
	if baseline.MaxProcs != current.MaxProcs {
		failures = append(failures, fmt.Sprintf(
			"go_maxprocs mismatch: baseline %d, fresh %d — rerun with -cpu %d",
			baseline.MaxProcs, current.MaxProcs, baseline.MaxProcs))
	}
	fresh := make(map[string]BenchResult, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		fresh[b.Name] = b
	}
	for _, o := range baseline.Benchmarks {
		if !gatedName(o.Name) || o.NsPerOp <= 0 {
			continue
		}
		b, ok := fresh[o.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf(
				"%s: in baseline but missing from the fresh report — gated coverage lost", o.Name))
			continue
		}
		if b.NsPerOp > o.NsPerOp*(1+maxRegress) {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, gate %+.0f%%)",
				o.Name, b.NsPerOp, o.NsPerOp, 100*(b.NsPerOp/o.NsPerOp-1), 100*maxRegress))
		}
	}
	return failures
}
