package experiments

import (
	"context"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestTable1Runs(t *testing.T) {
	var sb strings.Builder
	if err := Table1(context.Background(), &sb, QuickConfigs()[:1]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 1", "[Elk05]", "New (this repo)", "measured"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
	if strings.Contains(out, "stretch verified: false") {
		t.Error("Table 1 reports a stretch violation")
	}
}

func TestTable2Runs(t *testing.T) {
	var sb strings.Builder
	if err := Table2(context.Background(), &sb, QuickConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"[EP01]", "[TZ06]", "[Pet09]", "[ABP17]", "[DGP07]", "[DGPV08]",
		"[DGPV09]", "[Elk05]", "[EZ06]", "[Pet10]", "[EN17]",
		"New (this repo)", "EN17 (this repo)", "EP01 (this repo)", "BaswanaSen",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
	if !strings.Contains(out, "New=true EN17=true EP01=true BS=true") {
		t.Errorf("Table 2 stretch checks not all true:\n%s", out)
	}
}

func TestFiguresAllPass(t *testing.T) {
	var sb strings.Builder
	if err := Figures(context.Background(), &sb, DefaultFigureConfig()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "[FAIL]") {
		t.Errorf("figure experiment failed:\n%s", out)
	}
	for _, want := range []string{
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figures 7 and 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q section", want)
		}
	}
}

func TestPhaseBreakdownRuns(t *testing.T) {
	var sb strings.Builder
	if err := PhaseBreakdown(context.Background(), &sb, QuickConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"per-phase protocol steps", "near-neighbors", "ruling-set", "phase total", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("breakdown missing %q:\n%s", want, out)
		}
	}
}

func TestClaimsRuns(t *testing.T) {
	var sb strings.Builder
	if err := Claims(context.Background(), &sb, QuickConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Radius growth", "Cluster decay", "Round budget", "Spanner size"} {
		if !strings.Contains(out, want) {
			t.Errorf("claims output missing %q", want)
		}
	}
}

func TestAblations(t *testing.T) {
	var sb strings.Builder
	if err := AblationA1(context.Background(), &sb, QuickConfigs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := AblationA4(context.Background(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ruling set (New)") {
		t.Error("A1 missing mechanism rows")
	}
	// A4 must demonstrate both findings: the deg+1 rule is clean, the
	// newly-learned rule breaks Lemma A.1, and the paper's literal
	// deg-budget rule breaks Theorem 2.1(2) on some workloads.
	counts := func(marker string) (int, int) {
		for _, l := range strings.Split(out, "\n") {
			if !strings.Contains(l, marker) {
				continue
			}
			var nums []int
			for _, f := range strings.Fields(l) {
				if v, err := strconv.Atoi(f); err == nil {
					nums = append(nums, v)
				}
			}
			if len(nums) >= 2 {
				return nums[len(nums)-2], nums[len(nums)-1]
			}
		}
		t.Fatalf("A4 row %q not found:\n%s", marker, out)
		return 0, 0
	}
	if d, e := counts("budget deg+1"); d != 0 || e != 0 {
		t.Errorf("deg+1 rule shows violations (%d, %d)", d, e)
	}
	if d, _ := counts("only newly-learned"); d == 0 {
		t.Error("newly-learned rule shows no Lemma A.1 deficits — finding 1 should reproduce")
	}
	if _, e := counts("budget deg (paper)"); e == 0 {
		t.Error("paper budget rule shows no Thm 2.1(2) violations — finding 2 should reproduce")
	}
}

func TestAnalyticFormulasSane(t *testing.T) {
	// The paper's qualitative ordering at moderate parameters:
	// beta_EP01 <= beta_EN17 <= beta_New (the derandomization cost), and
	// Elk05's rounds are super-linear while New's are sublinear for
	// large n.
	eps, kappa, rho := 0.1, 4, 0.45
	bEP := BetaEP01(eps, kappa)
	bEN := BetaEN17(eps, kappa, rho)
	bNew := BetaNew(eps, kappa, rho)
	if !(bEP <= bEN && bEN <= bNew) {
		t.Errorf("beta ordering violated: EP=%g EN=%g New=%g", bEP, bEN, bNew)
	}
	n := 1 << 20
	if RoundsElk05(n, kappa) <= float64(n) {
		t.Error("Elk05 rounds should be super-linear")
	}
	// The headline shape: New's rounds are sublinear in n and Elk05's
	// super-linear, so their ratio is monotone decreasing and crosses 1.
	r1 := RoundsNew(eps, kappa, rho, 1<<16) / RoundsElk05(1<<16, kappa)
	r2 := RoundsNew(eps, kappa, rho, 1<<24) / RoundsElk05(1<<24, kappa)
	if r2 >= r1 {
		t.Errorf("round ratio not decreasing: %g -> %g", r1, r2)
	}
	nStar := CrossoverN(eps, kappa, rho)
	if nStar <= 0 {
		t.Fatal("no crossover computed")
	}
	if RoundsNew(eps, kappa, rho, 4*nStar) >= RoundsElk05(4*nStar, kappa) {
		t.Errorf("New should beat Elk05 beyond the crossover n*=%d", nStar)
	}
}

func TestQuickSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("suite smoke test skipped in -short mode")
	}
	var sb strings.Builder
	if err := Suite(context.Background(), &sb, QuickConfigs()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "[FAIL]") {
		t.Error("suite contains failures")
	}
}

// The perf gate flags only gated families, true regressions, gated
// baseline rows that vanished from the fresh report, and go_maxprocs
// mismatches — and never fresh rows without a baseline.
func TestBenchGate(t *testing.T) {
	base := BenchReport{MaxProcs: 4, Benchmarks: []BenchResult{
		{Name: "engine/gnp-1024", NsPerOp: 100},
		{Name: "assembly/columnar/500k", NsPerOp: 100},
		{Name: "frontier/climb-path-16k", NsPerOp: 100},
		{Name: "build/centralized/gnp-1024", NsPerOp: 100},
	}}
	cur := BenchReport{MaxProcs: 4, Benchmarks: []BenchResult{
		{Name: "engine/gnp-1024", NsPerOp: 130},            // regression
		{Name: "assembly/columnar/500k", NsPerOp: 124},     // inside the 25% gate
		{Name: "frontier/climb-path-16k", NsPerOp: 40},     // improvement
		{Name: "frontier/ruling-path-16k", NsPerOp: 500},   // no baseline row: skipped
		{Name: "build/centralized/gnp-1024", NsPerOp: 900}, // ungated family
	}}
	msgs := BenchGate(base, cur, 0.25)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "engine/gnp-1024") {
		t.Errorf("BenchGate = %v, want exactly the engine/ regression", msgs)
	}
	if msgs := BenchGate(base, base, 0.25); len(msgs) != 0 {
		t.Errorf("identical reports flagged: %v", msgs)
	}

	// A gated baseline row missing from the fresh report fails the gate.
	lost := BenchReport{MaxProcs: 4, Benchmarks: cur.Benchmarks[1:]}
	msgs = BenchGate(base, lost, 0.25)
	found := false
	for _, m := range msgs {
		if strings.Contains(m, "engine/gnp-1024") && strings.Contains(m, "missing") {
			found = true
		}
	}
	if !found {
		t.Errorf("lost gated coverage not flagged: %v", msgs)
	}

	// Reports from different GOMAXPROCS are not comparable.
	other := cur
	other.MaxProcs = 1
	msgs = BenchGate(base, other, 0.25)
	found = false
	for _, m := range msgs {
		if strings.Contains(m, "go_maxprocs mismatch") {
			found = true
		}
	}
	if !found {
		t.Errorf("go_maxprocs mismatch not flagged: %v", msgs)
	}
}

// ParseBench reads `go test -bench -benchmem` output as printed: the
// GOMAXPROCS suffix is stripped only when it is the run's (every name
// ends in it), rows may end in digits, ns/op is read as printed (also
// when a row overrode it with ReportMetric), extra units and non-result
// lines are skipped, and a failure or an empty run is an error.
func TestParseBench(t *testing.T) {
	const header = "goos: linux\ngoarch: amd64\npkg: nearspan\ncpu: Intel(R) Xeon(R) Processor\n"
	const trailer = "PASS\nok  \tnearspan\t41.327s\n"
	// Captured at -cpu 4.
	cpu4 := header +
		"BenchmarkBaseline/engine/gnp-1024-4                 \t      19\t  64041321 ns/op\t12469355 B/op\t   98096 allocs/op\n" +
		"BenchmarkBaseline/frontier/climb-path-16k-4         \t     109\t  10945371 ns/op\t   1376302 arena-B/op\t 5782871 B/op\t   98363 allocs/op\n" +
		"BenchmarkBaseline/oracle/warm-source/pool-500k-4    \t127543422\t         8.540 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkBaseline/oracle/point/p99-500k-4           \t   53037\t     91756 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkBaseline/oracle/scaling/replicas-2-4       \t   44996\t     25433 ns/op\t       0 B/op\t       0 allocs/op\n" +
		"BenchmarkBaseline/delta/full-build/gnp-65k-1m-4              \t       1\t6474532300 ns/op\t751014840 B/op\t 3453568 allocs/op\n" +
		trailer
	rep, err := ParseBench(strings.NewReader(cpu4))
	if err != nil {
		t.Fatal(err)
	}
	want := []BenchResult{
		{"engine/gnp-1024", 19, 64041321, 12469355, 98096},
		{"frontier/climb-path-16k", 109, 10945371, 5782871, 98363},
		{"oracle/warm-source/pool-500k", 127543422, 8.54, 0, 0},
		{"oracle/point/p99-500k", 53037, 91756, 0, 0},
		{"oracle/scaling/replicas-2", 44996, 25433, 0, 0},
		{"delta/full-build/gnp-65k-1m", 1, 6474532300, 751014840, 3453568},
	}
	if rep.MaxProcs != 4 || !slices.Equal(rep.Benchmarks, want) {
		t.Errorf("-cpu 4: go_maxprocs %d, rows %+v\nwant go_maxprocs 4, rows %+v", rep.MaxProcs, rep.Benchmarks, want)
	}

	// Captured at -cpu 1: no suffix, so names ending in digits stay whole.
	cpu1 := header +
		"BenchmarkBaseline/engine/gnp-1024         \t      17\t  66180025 ns/op\t12469120 B/op\t   98093 allocs/op\n" +
		"BenchmarkBaseline/oracle/scaling/replicas-1 \t   50209\t     23781 ns/op\t       0 B/op\t       0 allocs/op\n" +
		trailer
	rep, err = ParseBench(strings.NewReader(cpu1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxProcs != 1 || len(rep.Benchmarks) != 2 ||
		rep.Benchmarks[0].Name != "engine/gnp-1024" || rep.Benchmarks[1].Name != "oracle/scaling/replicas-1" {
		t.Errorf("-cpu 1: go_maxprocs %d, rows %+v", rep.MaxProcs, rep.Benchmarks)
	}

	for name, out := range map[string]string{
		"failed row":   header + "BenchmarkBaseline/engine/gnp-1024-4 \t--- FAIL: BenchmarkBaseline/engine/gnp-1024-4\n" + "FAIL\nexit status 1\nFAIL\tnearspan\t3.1s\n",
		"failed build": "FAIL\tnearspan [build failed]\n",
		"no rows":      header + trailer,
		"repeated row": header + strings.Repeat("BenchmarkBaseline/engine/gnp-1024-4 \t 19\t 64041321 ns/op\t 0 B/op\t 0 allocs/op\n", 2) + trailer,
	} {
		if rep, err := ParseBench(strings.NewReader(out)); err == nil {
			t.Errorf("%s: parsed %+v, want an error", name, rep)
		}
	}
}
