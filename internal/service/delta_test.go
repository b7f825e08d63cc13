package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/delta"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// jobGraph returns the job's current input graph (swapped by each
// delta) through the materializer, as a PATCH would.
func jobGraph(t *testing.T, s *Server, j *Job) *graph.Graph {
	t.Helper()
	j.patchMu.Lock()
	defer j.patchMu.Unlock()
	g, err := s.input(j)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sampleBatch builds a small delta that agrees with the given graph:
// the first k sampled edges deleted, k absent pairs
// inserted. Deterministic so the test's from-scratch reference patches
// the same edges.
func sampleBatch(t *testing.T, g *graph.Graph, k int) *delta.Batch {
	t.Helper()
	b := &delta.Batch{}
	g.Edges(func(u, v int) {
		if len(b.Delete) < k && u%7 == 3 {
			b.Delete = append(b.Delete, delta.Edge{U: int32(u), V: int32(v)})
		}
	})
	for u := 0; len(b.Insert) < k; u++ {
		v := (u + 97) % g.N()
		if u != v && !g.HasEdge(u, v) {
			b.Insert = append(b.Insert, delta.Edge{U: int32(min(u, v)), V: int32(max(u, v))})
		}
	}
	if err := b.Normalize(g.N()); err != nil {
		t.Fatal(err)
	}
	return b
}

// The delta E2E: submit the gnp-256 workload, PATCH an edge delta over
// HTTP, and require (1) the rebuilt spanner's fingerprint bit-identical
// to a from-scratch core.Build of the patched graph, (2) queries on the
// swapped pool pinned to the patched ground truth, including ?path=1
// walks that are genuine spanner paths, and (3) a second chained PATCH
// behaving the same.
func TestServiceDeltaPatchEndToEnd(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{Builds: 1, QueryReplicas: 2})
	defer shutdown()

	body, _ := json.Marshal(gnp256Spec)
	resp, err := http.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if view.State != StateDone {
		t.Fatalf("job finished %q (%+v)", view.State, view.Error)
	}

	g := gen.GNP(256, 16.0/256, 256, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}

	patch := func(b *delta.Batch) JobView {
		t.Helper()
		var in bytes.Buffer
		for _, e := range b.Insert {
			fmt.Fprintf(&in, "{\"op\":\"insert\",\"u\":%d,\"v\":%d}\n", e.U, e.V)
		}
		for _, e := range b.Delete {
			fmt.Fprintf(&in, "{\"op\":\"delete\",\"u\":%d,\"v\":%d}\n", e.U, e.V)
		}
		req, _ := http.NewRequest(http.MethodPatch, url+"/v1/jobs/"+view.ID+"/edges", &in)
		pr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer pr.Body.Close()
		var pv JobView
		if err := json.NewDecoder(pr.Body).Decode(&pv); err != nil {
			t.Fatal(err)
		}
		if pr.StatusCode != http.StatusOK {
			t.Fatalf("PATCH: status %d (%+v)", pr.StatusCode, pv.Error)
		}
		return pv
	}

	for round := 1; round <= 2; round++ {
		b := sampleBatch(t, g, 2+round)
		pv := patch(b)

		// From-scratch reference on the patched graph.
		g2, err := delta.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Build(context.Background(), g2, p,
			core.Options{Mode: core.ModeDistributed})
		if err != nil {
			t.Fatal(err)
		}
		m, fp := graph.Fingerprint(ref.Spanner)
		if pv.Result == nil || pv.Result.Fingerprint != fp || pv.Result.Edges != m {
			t.Fatalf("round %d: PATCH result %+v, from-scratch fingerprint %s (%d edges)",
				round, pv.Result, fp, m)
		}
		if pv.Result.Deltas != round {
			t.Errorf("round %d: deltas %d", round, pv.Result.Deltas)
		}
		if pv.GraphM != g2.M() {
			t.Errorf("round %d: graph_m %d, want %d", round, pv.GraphM, g2.M())
		}

		// Queries answer from the swapped pool: distances pinned to the
		// patched spanner, paths walk real spanner edges.
		for u := 0; u < 256; u += 37 {
			lv := ref.Spanner.BFS(u)
			v := (u + 131) % 256
			qr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/query?u=%d&v=%d&path=1", url, view.ID, u, v))
			if err != nil {
				t.Fatal(err)
			}
			var ans queryAnswer
			if err := json.NewDecoder(qr.Body).Decode(&ans); err != nil {
				t.Fatal(err)
			}
			qr.Body.Close()
			if ans.Dist != wireDist(lv[v]) {
				t.Fatalf("round %d: query (%d,%d)=%d, patched ground truth %d", round, u, v, ans.Dist, lv[v])
			}
			if ans.Dist >= 0 {
				if len(ans.Path) != int(ans.Dist)+1 || ans.Path[0] != int32(u) || ans.Path[len(ans.Path)-1] != int32(v) {
					t.Fatalf("round %d: query (%d,%d) path %v for dist %d", round, u, v, ans.Path, ans.Dist)
				}
				for i := 1; i < len(ans.Path); i++ {
					if !ref.Spanner.HasEdge(int(ans.Path[i-1]), int(ans.Path[i])) {
						t.Fatalf("round %d: path step %d-%d not a spanner edge", round, ans.Path[i-1], ans.Path[i])
					}
				}
			}
		}
		g = g2 // next round chains on the patched graph
	}

	// Rebuild counters surface on /metrics.
	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	met, _ := io.ReadAll(mr.Body)
	if !strings.Contains(string(met), "spannerd_rebuilds_total 2") {
		t.Errorf("/metrics is missing spannerd_rebuilds_total 2")
	}
}

// PATCH error contract: unknown job 404, malformed NDJSON / empty batch
// 400, and a delta that disagrees with the graph 409 — which must leave
// the job's spanner untouched.
func TestServiceDeltaPatchBadRequests(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()

	do := func(id, body string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPatch, url+"/v1/jobs/"+id+"/edges", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := do("j999999", "{\"op\":\"insert\",\"u\":0,\"v\":1}\n"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}

	body, _ := json.Marshal(JobSpec{
		Graph: GraphSpec{Type: "grid", Rows: 5, Cols: 5},
		Eps:   0.5, Kappa: 3, Rho: 0.49,
	})
	jr, err := http.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(jr.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if view.State != StateDone {
		t.Fatalf("job finished %q", view.State)
	}
	before := view.Result.Fingerprint

	for name, c := range map[string]struct {
		body string
		want int
	}{
		"garbage":        {"not json\n", http.StatusBadRequest},
		"missing v":      {"{\"op\":\"insert\",\"u\":0}\n", http.StatusBadRequest},
		"unknown op":     {"{\"op\":\"toggle\",\"u\":0,\"v\":2}\n", http.StatusBadRequest},
		"empty":          {"", http.StatusBadRequest},
		"out of range":   {"{\"op\":\"insert\",\"u\":0,\"v\":99}\n", http.StatusBadRequest},
		"self-loop":      {"{\"op\":\"insert\",\"u\":3,\"v\":3}\n", http.StatusBadRequest},
		"insert present": {"{\"op\":\"insert\",\"u\":0,\"v\":1}\n", http.StatusConflict},
		"delete absent":  {"{\"op\":\"delete\",\"u\":0,\"v\":24}\n", http.StatusConflict},
		"insert+delete":  {"{\"op\":\"insert\",\"u\":0,\"v\":7}\n{\"op\":\"delete\",\"u\":0,\"v\":7}\n", http.StatusBadRequest},
	} {
		if code := do(view.ID, c.body); code != c.want {
			t.Errorf("%s: status %d, want %d", name, code, c.want)
		}
	}

	// Every rejected patch left the spanner untouched.
	sr, err := http.Get(url + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var after JobView
	if err := json.NewDecoder(sr.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Result.Fingerprint != before || after.Result.Deltas != 0 {
		t.Errorf("rejected patches mutated the job: %+v", after.Result)
	}
}

// The swap race: goroutines hammer the job's query pool while the main
// goroutine applies a chain of edge deltas. Under -race this pins the
// atomicity of the pool swap; functionally, every answer must equal the
// queried pair's distance in one of the chain's spanner snapshots —
// in-flight queries finish on the old snapshot, new ones see the new.
func TestServiceDeltaQueryDuringSwapRace(t *testing.T) {
	s := New(Options{Builds: 1, SchedWorkers: 2, QueryReplicas: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	job, err := s.Submit(JobSpec{
		Graph: GraphSpec{Type: "gnp", N: 200, P: 0.06, Seed: 9, Connected: true},
		Eps:   1.0 / 3, Kappa: 3, Rho: 0.49,
		Mode: "centralized",
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if st := job.State(); st != StateDone {
		t.Fatalf("job finished %q", st)
	}
	p, err := params.New(1.0/3, 3, 0.49, 200)
	if err != nil {
		t.Fatal(err)
	}

	const u, v = 3, 190
	// valid accumulates the u-v spanner distance of every snapshot in the
	// chain — each added BEFORE its swap, so whichever pool a hammer
	// goroutine lands on, its answer is already in the set.
	valid := map[int32]bool{job.QueryPool().Dist(u, v): true}
	var validMu sync.Mutex

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d := job.QueryPool().Dist(u, v)
				validMu.Lock()
				ok := valid[d]
				validMu.Unlock()
				if !ok {
					t.Errorf("query answered %d: not the distance of any snapshot", d)
					return
				}
			}
		}()
	}

	g := jobGraph(t, s, job)
	for step := 0; step < 6; step++ {
		b := sampleBatch(t, g, 2)
		g2, err := delta.Apply(g, b)
		if err != nil {
			t.Fatal(err)
		}
		// The rebuild is bit-identical to a from-scratch build on the
		// patched graph, so the reference spanner gives the next snapshot's
		// exact answer.
		ref, err := core.Build(context.Background(), g2, p, core.Options{Mode: core.ModeCentralized})
		if err != nil {
			t.Fatal(err)
		}
		validMu.Lock()
		valid[ref.Spanner.BFS(u)[v]] = true
		validMu.Unlock()
		if jerr := s.RebuildJob(job, b); jerr != nil {
			t.Fatalf("step %d: %+v", step, jerr)
		}
		g = g2
	}
	close(stop)
	wg.Wait()
}
