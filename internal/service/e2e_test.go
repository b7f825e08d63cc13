package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"

	"nearspan/internal/congest"
	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// startDaemon boots the full daemon — server, listener, Run lifecycle —
// on a random port, exactly as cmd/spannerd does, and returns its base
// URL plus a shutdown function that drains it.
func startDaemon(t *testing.T, opts Options) (*Server, string, func()) {
	t.Helper()
	if opts.SchedWorkers == 0 {
		opts.SchedWorkers = 2 // private pool so shutdown is observable
	}
	s := New(opts)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, s, l) }()
	url := "http://" + l.Addr().String()
	shutdown := func() {
		cancel()
		select {
		case err := <-runDone:
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Error("daemon did not shut down within 30s")
		}
	}
	return s, url, shutdown
}

func postJSON(t *testing.T, url string, spec JobSpec) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode < 300 {
		t.Fatalf("decode response: %v", err)
	}
	return resp, v
}

// The daemon E2E: submit the golden gnp-256 workload as a distributed
// job over HTTP, stream its per-step events as NDJSON, and require the
// served spanner's fingerprint to be bit-identical to the committed
// golden fixture — the proof that the service path (queue, worker,
// shared runtime, fan-out) changes nothing about what gets built.
func TestServiceE2EGoldenFingerprint(t *testing.T) {
	raw, err := os.ReadFile("../../testdata/golden_spanners.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Name  string  `json:"name"`
		Algo  string  `json:"algo"`
		Eps   float64 `json:"eps"`
		Kappa int     `json:"kappa"`
		Rho   float64 `json:"rho"`
		Edges int     `json:"edges"`
		Hash  string  `json:"hash"`
	}
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatal(err)
	}
	golden := entries[0]
	for _, e := range entries {
		if e.Name == "gnp-256" && e.Algo == "paper" && e.Kappa == 3 {
			golden = e
			break
		}
	}
	if golden.Name != "gnp-256" || golden.Algo != "paper" {
		t.Fatal("golden fixture is missing the gnp-256 paper entry")
	}

	_, url, shutdown := startDaemon(t, Options{Builds: 2})
	defer shutdown()

	resp, view := postJSON(t, url+"/v1/jobs", JobSpec{
		Name:  "golden-gnp-256",
		Graph: GraphSpec{Type: "gnp", N: 256, P: 16.0 / 256, Seed: 256, Connected: true},
		Eps:   golden.Eps, Kappa: golden.Kappa, Rho: golden.Rho,
		Mode: "distributed", Engine: "parallel",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if view.State != StateQueued && view.State != StateRunning {
		t.Fatalf("submit: state %q", view.State)
	}

	// Stream the events: every step metric as one NDJSON line, then the
	// closing summary record carrying the terminal job document.
	evResp, err := http.Get(url + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer evResp.Body.Close()
	if ct := evResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var (
		steps     []eventRecord
		final     eventFinal
		sawFinal  bool
		roundsSum int
	)
	sc := bufio.NewScanner(evResp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if probe.Done {
			if err := json.Unmarshal(line, &final); err != nil {
				t.Fatal(err)
			}
			sawFinal = true
			break
		}
		var rec eventRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		steps = append(steps, rec)
		roundsSum += rec.Rounds
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawFinal {
		t.Fatal("event stream ended without the final summary record")
	}
	if len(steps) == 0 {
		t.Fatal("event stream carried no step metrics")
	}
	if final.Job.State != StateDone {
		t.Fatalf("job finished %q (error: %+v)", final.Job.State, final.Job.Error)
	}
	res := final.Job.Result
	if res == nil {
		t.Fatal("done job carries no result")
	}
	if res.Edges != golden.Edges || res.Fingerprint != golden.Hash {
		t.Errorf("served spanner drifted from the golden fixture: got (m=%d, %s), golden (m=%d, %s)",
			res.Edges, res.Fingerprint, golden.Edges, golden.Hash)
	}
	if roundsSum != res.TotalRounds {
		t.Errorf("streamed step rounds sum to %d, result reports %d", roundsSum, res.TotalRounds)
	}
	if res.ArenaBytes <= 0 {
		t.Errorf("distributed result reports arena bytes %d, want > 0", res.ArenaBytes)
	}

	// The status endpoint agrees with the stream's summary.
	st, err := http.Get(url + "/v1/jobs/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var polled JobView
	if err := json.NewDecoder(st.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if polled.State != StateDone || polled.Result == nil || polled.Result.Fingerprint != res.Fingerprint {
		t.Errorf("status poll disagrees with event summary: %+v", polled)
	}
}

// Eight simultaneous jobs across both engines, submitted over
// HTTP, must produce spanners bit-identical to the same builds run
// sequentially through core.Build — the PR 3 Concurrent suite lifted to
// the HTTP layer. Run under -race in CI.
func TestServiceConcurrentJobsBitIdenticalToSequential(t *testing.T) {
	type workload struct {
		name string
		spec GraphSpec
		g    func() *graph.Graph
		eps  float64
		kap  int
		rho  float64
	}
	workloads := []workload{
		{"grid", GraphSpec{Type: "grid", Rows: 9, Cols: 9},
			func() *graph.Graph { return gen.Grid(9, 9) }, 1.0 / 3, 3, 0.49},
		{"gnp", GraphSpec{Type: "gnp", N: 90, P: 0.12, Seed: 7, Connected: true},
			func() *graph.Graph { return gen.GNP(90, 0.12, 7, true) }, 1.0 / 3, 3, 0.49},
		{"communities", GraphSpec{Type: "communities", K: 4, CommSize: 20, PIn: 0.4, POut: 0.01, Seed: 3},
			func() *graph.Graph { return gen.Communities(4, 20, 0.4, 0.01, 3) }, 0.5, 4, 0.45},
		{"torus", GraphSpec{Type: "torus", Rows: 8, Cols: 8},
			func() *graph.Graph { return gen.Torus(8, 8) }, 0.5, 4, 0.3},
	}
	engines := congest.Engines()

	// Sequential references, one per job, via core.Build directly.
	type ref struct {
		fingerprint string
		edges       int
		rounds      int
		messages    int64
	}
	refs := make([]ref, 8)
	for i := 0; i < 8; i++ {
		wl := workloads[i%len(workloads)]
		g := wl.g()
		p, err := params.New(wl.eps, wl.kap, wl.rho, g.N())
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Build(context.Background(), g, p,
			core.Options{Mode: core.ModeDistributed, Engine: engines[i%len(engines)]})
		if err != nil {
			t.Fatal(err)
		}
		m, fp := graph.Fingerprint(res.Spanner)
		refs[i] = ref{fingerprint: fp, edges: m, rounds: res.TotalRounds, messages: res.Messages}
	}

	_, url, shutdown := startDaemon(t, Options{Builds: 4, QueueDepth: 16, SchedWorkers: 4})
	defer shutdown()

	views := make([]JobView, 8)
	statuses := make([]int, 8)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl := workloads[i%len(workloads)]
			spec := JobSpec{
				Name:  fmt.Sprintf("concurrent-%d", i),
				Graph: wl.spec,
				Eps:   wl.eps, Kappa: wl.kap, Rho: wl.rho,
				Mode: "distributed", Engine: engines[i%len(engines)].String(),
			}
			body, err := json.Marshal(spec)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(url+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			if err := json.NewDecoder(resp.Body).Decode(&views[i]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < 8; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("job %d: wait status %d (%+v)", i, statuses[i], views[i].Error)
		}
		res := views[i].Result
		if res == nil {
			t.Fatalf("job %d finished %q without result", i, views[i].State)
		}
		if res.Fingerprint != refs[i].fingerprint || res.Edges != refs[i].edges {
			t.Errorf("job %d (%s/%s): served (m=%d, %s), sequential (m=%d, %s)",
				i, views[i].Name, views[i].Engine,
				res.Edges, res.Fingerprint, refs[i].edges, refs[i].fingerprint)
		}
		if res.TotalRounds != refs[i].rounds || res.Messages != refs[i].messages {
			t.Errorf("job %d: served metrics (%d rounds, %d msgs), sequential (%d, %d)",
				i, res.TotalRounds, res.Messages, refs[i].rounds, refs[i].messages)
		}
	}
}

// A raw edge-list upload (non-JSON content type, parameters in the
// query string) builds the same spanner as the equivalent generator
// submission.
func TestServiceEdgeListUpload(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()

	g := gen.Grid(9, 9)
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%d %d\n", g.N(), g.M())
	g.Edges(func(u, v int) { fmt.Fprintf(&sb, "%d %d\n", u, v) })

	resp, err := http.Post(
		url+"/v1/jobs?wait=1&eps=0.3333333333333333&kappa=3&rho=0.49&engine=sequential",
		"text/plain", &sb)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || v.State != StateDone {
		t.Fatalf("upload job: status %d state %q (%+v)", resp.StatusCode, v.State, v.Error)
	}

	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	_, fp := graph.Fingerprint(want.Spanner)
	if v.Result == nil || v.Result.Fingerprint != fp {
		t.Errorf("uploaded-edge-list spanner differs from the direct build")
	}
}

// Bad submissions are rejected at the door with 400 and a reason;
// unknown job ids are 404.
func TestServiceBadRequests(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()

	for name, spec := range map[string]JobSpec{
		"unknown graph type": {Graph: GraphSpec{Type: "klein-bottle", N: 8}, Eps: 0.5, Kappa: 3, Rho: 0.49},
		"missing eps":        {Graph: GraphSpec{Type: "path", N: 8}, Kappa: 3, Rho: 0.49},
		"bad mode":           {Graph: GraphSpec{Type: "path", N: 8}, Eps: 0.5, Kappa: 3, Rho: 0.49, Mode: "quantum"},
		"bad engine":         {Graph: GraphSpec{Type: "path", N: 8}, Eps: 0.5, Kappa: 3, Rho: 0.49, Engine: "warp"},
		"removed engine":     {Graph: GraphSpec{Type: "path", N: 8}, Eps: 0.5, Kappa: 3, Rho: 0.49, Engine: "goroutine"},
	} {
		resp, _ := postJSON(t, url+"/v1/jobs", spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(url + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}
