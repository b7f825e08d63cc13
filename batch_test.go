package nearspan_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"nearspan"
)

func batchJobs() []nearspan.BuildJob {
	mk := func(name string, g *nearspan.Graph, cfg nearspan.Config) nearspan.BuildJob {
		return nearspan.BuildJob{Name: name, Graph: g, Config: cfg}
	}
	dist := nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: nearspan.DistributedMode}
	cent := nearspan.Config{Eps: 0.5, Kappa: 4, Rho: 0.45}
	return []nearspan.BuildJob{
		mk("grid", nearspan.Grid(9, 9), dist),
		mk("gnp", nearspan.GNP(90, 0.12, 7, true), dist),
		mk("torus", nearspan.Torus(8, 8), cent),
		mk("comm", nearspan.Communities(4, 20, 0.4, 0.01, 3), dist),
		mk("hypercube", nearspan.Hypercube(6), dist),
		mk("pa", mustPA(128, 3, 9), cent),
		mk("cycle", nearspan.Cycle(100), dist),
		mk("tree", nearspan.RandomTree(120, 5), dist),
	}
}

func mustPA(n, m int, seed uint64) *nearspan.Graph {
	g, err := nearspan.PreferentialAttachment(n, m, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// BuildBatch over 8 heterogeneous jobs must be bit-identical to a
// sequential BuildSpanner loop — the public face of the shared-runtime
// determinism guarantee (run under -race in CI).
func TestConcurrentBatchBuildMatchesSequential(t *testing.T) {
	jobs := batchJobs()
	if len(jobs) < 8 {
		t.Fatalf("want >= 8 jobs, have %d", len(jobs))
	}

	seq := make([]*nearspan.Result, len(jobs))
	for i, j := range jobs {
		res, err := nearspan.BuildSpanner(j.Graph, j.Config)
		if err != nil {
			t.Fatalf("sequential %s: %v", j.Name, err)
		}
		seq[i] = res
	}

	outs, err := nearspan.BuildBatch(context.Background(), jobs, nearspan.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].Name, out.Err)
		}
		s, b := seq[i], out.Result
		if s.EdgeCount() != b.EdgeCount() || s.TotalRounds != b.TotalRounds || s.Messages != b.Messages {
			t.Errorf("job %s: batch (m=%d,r=%d,msg=%d) vs sequential (m=%d,r=%d,msg=%d)",
				jobs[i].Name, b.EdgeCount(), b.TotalRounds, b.Messages,
				s.EdgeCount(), s.TotalRounds, s.Messages)
		}
		same := true
		s.Spanner.Edges(func(u, v int) {
			if !b.Spanner.HasEdge(u, v) {
				same = false
			}
		})
		if !same {
			t.Errorf("job %s: batch spanner differs from sequential", jobs[i].Name)
		}
	}
}

// A cancelled batch marks every unfinished job with ctx.Err() and
// returns it; finished work is never silently discarded and no partial
// spanner ever escapes.
func TestBatchBuildCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := nearspan.BuildBatch(ctx, batchJobs(), nearspan.BatchOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildBatch = %v, want context.Canceled", err)
	}
	for i, out := range outs {
		if out.Result != nil {
			t.Errorf("job %d returned a result despite pre-cancelled context", i)
		}
		if !errors.Is(out.Err, context.Canceled) {
			t.Errorf("job %d: err = %v, want context.Canceled", i, out.Err)
		}
	}
}

// Per-job OnStep callbacks stream every job's step metrics, tagged with
// the right job index, and per job they arrive in execution order.
func TestBatchBuildOnStepProgress(t *testing.T) {
	jobs := batchJobs()[:4]
	var mu sync.Mutex
	perJob := make(map[int][]nearspan.StepMetrics)
	outs, err := nearspan.BuildBatch(context.Background(), jobs, nearspan.BatchOptions{
		OnStep: func(job int, sm nearspan.StepMetrics) {
			mu.Lock()
			perJob[job] = append(perJob[job], sm)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if out.Err != nil {
			t.Fatalf("job %s: %v", jobs[i].Name, out.Err)
		}
		got := perJob[i]
		if len(got) != len(out.Result.Steps) {
			t.Fatalf("job %s: %d callbacks for %d steps", jobs[i].Name, len(got), len(out.Result.Steps))
		}
		for s := range got {
			if got[s] != out.Result.Steps[s] {
				t.Errorf("job %s step %d: callback %+v vs result %+v",
					jobs[i].Name, s, got[s], out.Result.Steps[s])
			}
		}
	}
}

// The reusable builder serves several batches and reclaims every
// scheduler goroutine on Close.
func TestBatchBuilderReuse(t *testing.T) {
	base := runtime.NumGoroutine()
	b := nearspan.NewBatchBuilder(nearspan.BatchOptions{Workers: 2, Parallel: 2})
	jobs := batchJobs()[:3]
	var first []*nearspan.Result
	for round := 0; round < 2; round++ {
		outs, err := b.BuildBatch(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("round %d job %s: %v", round, jobs[i].Name, out.Err)
			}
			if round == 0 {
				first = append(first, out.Result)
			} else if out.Result.EdgeCount() != first[i].EdgeCount() {
				t.Errorf("job %s: round 1 spanner differs from round 0", jobs[i].Name)
			}
		}
	}
	b.Close()
	deadline := time.Now().Add(5 * time.Second)
	got := runtime.NumGoroutine()
	for got > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Errorf("Close leaked goroutines: base %d, after %d", base, got)
	}
}

// A batch build honours every Config field, not a hand-copied subset:
// a BuildBatch result built with KeepRebuildState seeds RebuildSpanner
// exactly like the same Config through BuildSpanner does.
func TestBuildBatchKeepsRebuildState(t *testing.T) {
	g := nearspan.GNP(200, 0.05, 17, true)
	cfg := nearspan.Config{Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, KeepRebuildState: true}
	out, err := nearspan.BuildBatch(context.Background(),
		[]nearspan.BuildJob{{Graph: g, Config: cfg}}, nearspan.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}

	// Two present edges out, two absent edges in.
	batch := &nearspan.DeltaBatch{}
	drop := map[[2]int]bool{}
	g.Edges(func(u, v int) {
		if len(batch.Delete) < 2 && u%7 == 0 {
			batch.Delete = append(batch.Delete, nearspan.DeltaEdge{U: int32(u), V: int32(v)})
			drop[[2]int{u, v}] = true
		}
	})
	for u, v := 1, 150; len(batch.Insert) < 2; u, v = u+1, v+1 {
		if !g.HasEdge(u, v) {
			batch.Insert = append(batch.Insert, nearspan.DeltaEdge{U: int32(u), V: int32(v)})
		}
	}
	if len(batch.Delete) != 2 {
		t.Fatalf("fixture: %d deletions, want 2", len(batch.Delete))
	}

	rebuilt, err := nearspan.RebuildSpanner(out[0].Result, batch, cfg)
	if err != nil {
		t.Fatal(err)
	}

	b := nearspan.NewBuilder(g.N())
	g.Edges(func(u, v int) {
		if !drop[[2]int{u, v}] {
			mustAdd(t, b, u, v)
		}
	})
	for _, e := range batch.Insert {
		mustAdd(t, b, int(e.U), int(e.V))
	}
	want, err := nearspan.BuildSpanner(b.Build(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotM, gotHash := nearspan.Fingerprint(rebuilt.Spanner)
	wantM, wantHash := nearspan.Fingerprint(want.Spanner)
	if gotM != wantM || gotHash != wantHash {
		t.Errorf("rebuild of the batch result: %d edges %s, fresh build: %d edges %s",
			gotM, gotHash, wantM, wantHash)
	}
}

func mustAdd(t *testing.T, b *nearspan.Builder, u, v int) {
	t.Helper()
	if err := b.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}
