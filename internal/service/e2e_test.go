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
	"strings"
	"sync"
	"testing"
	"time"

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
		Mode: "distributed",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// A loaded machine can finish the build before the 202 is rendered,
	// so done is a valid answer too; a failed job is not.
	if view.State != StateQueued && view.State != StateRunning && view.State != StateDone {
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

// Eight simultaneous jobs, submitted over HTTP, must produce spanners bit-identical to the same builds run
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
			core.Options{Mode: core.ModeDistributed})
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
				Mode: "distributed",
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
			t.Errorf("job %d (%s): served (m=%d, %s), sequential (m=%d, %s)",
				i, views[i].Name,
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
		url+"/v1/jobs?wait=1&eps=0.3333333333333333&kappa=3&rho=0.49",
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

// Every edge-list upload goes through graph.ReadEdgeList: a malformed
// list is a 400 whose body names the offending line, an unrepresentable
// vertex count is ErrVertexCount, and the degenerate but valid lists (a
// single vertex, a disconnected graph) build like a direct core.Build.
func TestServiceEdgeListUploadValidation(t *testing.T) {
	_, url, shutdown := startDaemon(t, Options{})
	defer shutdown()
	const query = "/v1/jobs?wait=1&eps=0.3333333333333333&kappa=3&rho=0.49"
	upload := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+query, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}

	for name, c := range map[string]struct{ body, want string }{
		"duplicate edge":     {"3 2\n0 1\n1 0\n", "line 3: graph: duplicate edge {1,0}"},
		"self-loop":          {"# comment\n3 1\n2 2\n", "line 3: graph: self-loop on vertex 2"},
		"out of range":       {"3 1\n0 3\n", "line 2: graph: edge {0,3} out of range [0,3)"},
		"edge count differs": {"\n4 3\n0 1\n1 2\n", "line 2: header claims 3 edges, found 2"},
		"n above int32":      {"2147483648 0\n", graph.ErrVertexCount.Error()},
	} {
		code, raw := upload(c.body)
		var e apiError
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Errorf("%s: body %q is not an error document: %v", name, raw, err)
			continue
		}
		if code != http.StatusBadRequest || !strings.Contains(e.Error, c.want) {
			t.Errorf("%s: status %d error %q, want 400 naming %q", name, code, e.Error, c.want)
		}
	}

	for name, c := range map[string]struct {
		body  string
		edges [][2]int
		n     int
	}{
		"single vertex":         {"1 0", nil, 1},
		"disconnected 4-vertex": {"4 2\n0 1\n2 3\n", [][2]int{{0, 1}, {2, 3}}, 4},
	} {
		code, raw := upload(c.body)
		var v JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: decode %q: %v", name, raw, err)
		}
		if code != http.StatusOK || v.State != StateDone || v.Result == nil {
			t.Fatalf("%s: status %d state %q (%+v)", name, code, v.State, v.Error)
		}
		b := graph.NewBuilder(c.n)
		for _, e := range c.edges {
			if err := b.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		p, err := params.New(1.0/3, 3, 0.49, c.n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Build(context.Background(), b.Build(), p, core.Options{Mode: core.ModeDistributed})
		if err != nil {
			t.Fatal(err)
		}
		_, fp := graph.Fingerprint(want.Spanner)
		if v.Result.Edges != want.Spanner.M() || v.Result.Fingerprint != fp {
			t.Errorf("%s: served (%d edges, %s), direct build (%d edges, %s)",
				name, v.Result.Edges, v.Result.Fingerprint, want.Spanner.M(), fp)
		}
		if c.n == 1 && v.Result.Edges != 0 {
			t.Errorf("%s: %d edges, want 0", name, v.Result.Edges)
		}
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
