package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/params"
)

// gnp256Spec is the golden gnp-256 workload as a job submission.
var gnp256Spec = JobSpec{
	Name:  "query-gnp-256",
	Graph: GraphSpec{Type: "gnp", N: 256, P: 16.0 / 256, Seed: 256, Connected: true},
	Eps:   1.0 / 3, Kappa: 3, Rho: 0.49,
	Mode: "distributed",
}

// gnp256GroundTruth builds the same spanner locally through core.Build
// and returns exact BFS levels from every vertex — the ground truth the
// HTTP answers are pinned against.
func gnp256GroundTruth(t *testing.T) [][]int32 {
	t.Helper()
	g := gen.GNP(256, 16.0/256, 256, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p,
		core.Options{Mode: core.ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	ref := make([][]int32, res.Spanner.N())
	for v := range ref {
		ref[v] = res.Spanner.BFS(v)
	}
	return ref
}

// The query-tier E2E: submit the gnp-256 workload, query its spanner
// over HTTP — single GETs and an NDJSON batch POST — and pin every
// answer against a locally built ground truth, then require the query
// metrics to show up in /metrics.
func TestServiceQueryEndToEnd(t *testing.T) {
	ref := gnp256GroundTruth(t)

	_, url, shutdown := startDaemon(t, Options{Builds: 1, QueryReplicas: 2, QueryCacheSources: 8})
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
	if resp.StatusCode != http.StatusOK || view.State != StateDone {
		t.Fatalf("job: status %d state %q (%+v)", resp.StatusCode, view.State, view.Error)
	}

	// Single queries: a pass over varied pairs, each pinned bit-identical
	// (modulo the -1 wire encoding) to the reference BFS.
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		u, v := r.Intn(256), r.Intn(256)
		qr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/query?u=%d&v=%d", url, view.ID, u, v))
		if err != nil {
			t.Fatal(err)
		}
		var ans queryAnswer
		if err := json.NewDecoder(qr.Body).Decode(&ans); err != nil {
			t.Fatal(err)
		}
		qr.Body.Close()
		if qr.StatusCode != http.StatusOK {
			t.Fatalf("query (%d,%d): status %d", u, v, qr.StatusCode)
		}
		if ans.Dist != wireDist(ref[u][v]) {
			t.Fatalf("query (%d,%d): dist %d, ground truth %d", u, v, ans.Dist, ref[u][v])
		}
		if ans.Alpha <= 1 || ans.Beta < 1 {
			t.Fatalf("query (%d,%d): implausible guarantee (%g, %d)", u, v, ans.Alpha, ans.Beta)
		}
	}

	// Batch: NDJSON in, NDJSON out, order preserved, answers pinned.
	var in bytes.Buffer
	queries := make([][2]int, 0, 300)
	for i := 0; i < 100; i++ { // hot sources: exercises the batch BFS path
		queries = append(queries, [2]int{i % 5, r.Intn(256)})
	}
	for i := 0; i < 200; i++ {
		queries = append(queries, [2]int{r.Intn(256), r.Intn(256)})
	}
	for _, q := range queries {
		fmt.Fprintf(&in, "{\"u\":%d,\"v\":%d}\n", q[0], q[1])
	}
	br, err := http.Post(url+"/v1/jobs/"+view.ID+"/query", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer br.Body.Close()
	if br.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d", br.StatusCode)
	}
	if ct := br.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("batch content type %q", ct)
	}
	sc := bufio.NewScanner(br.Body)
	i := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ans queryAnswer
		if err := json.Unmarshal(line, &ans); err != nil {
			t.Fatalf("batch line %d: %v", i, err)
		}
		if i >= len(queries) {
			t.Fatal("batch answered more lines than queries")
		}
		q := queries[i]
		if ans.U != q[0] || ans.V != q[1] || ans.Dist != wireDist(ref[q[0]][q[1]]) {
			t.Fatalf("batch line %d: got (%d,%d)=%d, want (%d,%d)=%d",
				i, ans.U, ans.V, ans.Dist, q[0], q[1], ref[q[0]][q[1]])
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(queries) {
		t.Fatalf("batch answered %d lines, want %d", i, len(queries))
	}

	// The query counters surface on /metrics: 60 single + 300 batched
	// queries, one batch, and a non-empty latency summary.
	mr, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	met, _ := io.ReadAll(mr.Body)
	for _, want := range []string{
		"spannerd_queries_total 360",
		"spannerd_query_batches_total 1",
		"spannerd_query_seconds_count 61",
		"spannerd_query_seconds{quantile=\"0.5\"}",
		"spannerd_query_seconds{quantile=\"0.99\"}",
		"spannerd_query_cache_misses_total",
		"spannerd_query_source_bfs_total",
		"spannerd_query_cached_sources",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("/metrics is missing %q", want)
		}
	}
}

// Querying a job that hasn't finished building is 404 — the query tier
// exists only once a spanner does — and the same URL answers 200 after
// the build completes.
func TestServiceQueryUnfinishedJob(t *testing.T) {
	started := make(chan struct{})
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, SchedWorkers: 2})
	s.beforeBuild = func(*Job) { close(started); <-proceed }
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ts := srv.URL
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	resp, view := postJSON(t, ts+"/v1/jobs", JobSpec{
		Graph: GraphSpec{Type: "grid", Rows: 9, Cols: 9},
		Eps:   0.5, Kappa: 3, Rho: 0.49,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	<-started // the job is mid-build: running, but no spanner yet

	qr, err := http.Get(ts + "/v1/jobs/" + view.ID + "/query?u=0&v=80")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, qr.Body)
	qr.Body.Close()
	if qr.StatusCode != http.StatusNotFound {
		t.Errorf("query mid-build: status %d, want 404", qr.StatusCode)
	}

	proceed <- struct{}{}
	job := s.Job(view.ID)
	select {
	case <-job.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	if v := job.View(); v.State != StateDone {
		t.Fatalf("job finished %q", v.State)
	}
	qr2, err := http.Get(ts + "/v1/jobs/" + view.ID + "/query?u=0&v=80")
	if err != nil {
		t.Fatal(err)
	}
	defer qr2.Body.Close()
	if qr2.StatusCode != http.StatusOK {
		t.Errorf("query after build: status %d, want 200", qr2.StatusCode)
	}
}

// Bad query requests: unknown job 404, malformed or out-of-range
// vertices 400, malformed batch lines 400.
func TestServiceQueryBadRequests(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()

	resp, err := http.Get(url + "/v1/jobs/j999999/query?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
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

	for name, qs := range map[string]string{
		"missing u":      "v=3",
		"non-numeric":    "u=zero&v=3",
		"negative":       "u=-1&v=3",
		"v out of range": "u=0&v=25",
	} {
		qr, err := http.Get(url + "/v1/jobs/" + view.ID + "/query?" + qs)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, qr.Body)
		qr.Body.Close()
		if qr.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, qr.StatusCode)
		}
	}

	for name, in := range map[string]string{
		"garbage line":  "{\"u\":0,\"v\":1}\nnot json\n",
		"missing field": "{\"u\":0}\n",
		"out of range":  "{\"u\":0,\"v\":99}\n",
	} {
		br, err := http.Post(url+"/v1/jobs/"+view.ID+"/query", "application/x-ndjson",
			strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, br.Body)
		br.Body.Close()
		if br.StatusCode != http.StatusBadRequest {
			t.Errorf("batch %s: status %d, want 400", name, br.StatusCode)
		}
	}
}
