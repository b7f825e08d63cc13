package service

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// smallGNP is a fast-but-nontrivial distributed workload for lifecycle
// tests.
func smallGNP(name string) JobSpec {
	return JobSpec{
		Name:  name,
		Graph: GraphSpec{Type: "gnp", N: 90, P: 0.12, Seed: 7, Connected: true},
		Eps:   1.0 / 3, Kappa: 3, Rho: 0.49,
	}
}

func waitDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("server never started draining")
		}
		time.Sleep(time.Millisecond)
	}
}

// A real SIGTERM during a build: the daemon must drain within its
// (deliberately tiny) grace, force-cancel the in-flight build at a
// round boundary, and leave the job cancelled with no result — never a
// partial spanner.
func TestServiceSIGTERMDrainForceCancelsBuild(t *testing.T) {
	started := make(chan struct{})
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, SchedWorkers: 2, DrainGrace: 20 * time.Millisecond})
	s.beforeBuild = func(*Job) { close(started); <-proceed }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, s, l) }()
	url := "http://" + l.Addr().String()

	resp, view := postJSON(t, url+"/v1/jobs", smallGNP("sigterm-victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	<-started

	termAt := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDraining(t, s)
	// Let the grace expire so the force-cancel is already in effect when
	// the build is released; cancellation then lands at the first round
	// boundary.
	time.Sleep(100 * time.Millisecond)
	close(proceed)

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain within 10s of SIGTERM")
	}
	if d := time.Since(termAt); d > 5*time.Second {
		t.Errorf("drain took %v, far beyond the 20ms grace", d)
	}

	job := s.Job(view.ID)
	if got := job.State(); got != StateCancelled {
		t.Fatalf("job state %q after forced drain, want cancelled", got)
	}
	v := job.View()
	if v.Result != nil {
		t.Errorf("force-cancelled job carries a result — a partial spanner escaped: %+v", v.Result)
	}
	if v.Error == nil || v.Error.Kind != "cancelled" {
		t.Errorf("job error %+v, want kind cancelled", v.Error)
	}
}

// Drain with a generous grace lets the in-flight build finish with a
// complete spanner, while queued-but-unstarted jobs are cancelled and
// further submissions are refused.
func TestServiceDrainLetsInFlightBuildFinish(t *testing.T) {
	started := make(chan struct{})
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, QueueDepth: 4, SchedWorkers: 2, DrainGrace: 30 * time.Second})
	s.beforeBuild = func(*Job) { close(started); <-proceed }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- Run(ctx, s, l) }()
	url := "http://" + l.Addr().String()

	resp1, inFlight := postJSON(t, url+"/v1/jobs", smallGNP("finishes"))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", resp1.StatusCode)
	}
	<-started
	resp2, queued := postJSON(t, url+"/v1/jobs", smallGNP("never-starts"))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", resp2.StatusCode)
	}

	cancel()
	waitDraining(t, s)
	if _, err := s.Submit(smallGNP("too-late")); err != ErrDraining {
		t.Errorf("submit while draining: %v, want ErrDraining", err)
	}
	close(proceed)

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain")
	}

	fv := s.Job(inFlight.ID).View()
	if fv.State != StateDone || fv.Result == nil || fv.Result.Edges == 0 {
		t.Errorf("in-flight job should have finished complete within the grace: %+v", fv)
	}
	qv := s.Job(queued.ID).View()
	if qv.State != StateCancelled || qv.Result != nil {
		t.Errorf("queued job should have been cancelled resultless: %+v", qv)
	}
}

// A full queue sheds load with 429 + Retry-After, counted in the
// rejected metric; once the queue moves again the accepted jobs finish
// normally.
func TestServiceQueueFullReturns429(t *testing.T) {
	started := make(chan string, 8)
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, QueueDepth: 1, SchedWorkers: 2})
	s.beforeBuild = func(j *Job) { started <- j.ID; <-proceed }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	resp1, j1 := postJSON(t, ts.URL+"/v1/jobs", smallGNP("building"))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", resp1.StatusCode)
	}
	<-started // worker holds j1; the queue slot is free again

	resp2, j2 := postJSON(t, ts.URL+"/v1/jobs", smallGNP("queued"))
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", resp2.StatusCode)
	}

	// Queue full: the third submission is shed.
	body, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"graph":{"type":"path","n":16},"eps":0.5,"kappa":3,"rho":0.49}`))
	if err != nil {
		t.Fatal(err)
	}
	defer body.Body.Close()
	if body.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 3: status %d, want 429", body.StatusCode)
	}
	if body.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(proceed)
	for _, id := range []string{j1.ID, j2.ID} {
		select {
		case <-s.Job(id).Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never finished", id)
		}
		if got := s.Job(id).State(); got != StateDone {
			t.Errorf("job %s finished %q, want done", id, got)
		}
	}

	metResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	raw, err := io.ReadAll(metResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`spannerd_jobs_total{state="done"} 2`,
		`spannerd_jobs_total{state="rejected"} 1`,
		"spannerd_rounds_total",
		"spannerd_arena_high_water_bytes",
		"spannerd_build_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// A per-job wall-clock timeout surfaces as a structured timeout
// failure: kind "timeout", HTTP 408 on the synchronous path, job state
// failed, no result.
func TestServiceJobTimeout(t *testing.T) {
	s := New(Options{SchedWorkers: 2})
	// The timeout clock starts before this hook, so sleeping past the
	// budget guarantees the deadline has expired when the build begins.
	s.beforeBuild = func(*Job) { time.Sleep(50 * time.Millisecond) }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	spec := smallGNP("deadline")
	spec.TimeoutMS = 10
	resp, v := postJSON(t, ts.URL+"/v1/jobs?wait=1", spec)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("wait status %d, want 408", resp.StatusCode)
	}
	if v.State != StateFailed || v.Error == nil || v.Error.Kind != "timeout" {
		t.Fatalf("timed-out job: %+v", v)
	}
	if v.Result != nil {
		t.Errorf("timed-out job carries a result: %+v", v.Result)
	}
}

// A round budget the build cannot fit in surfaces as the typed
// budget-exhausted failure — HTTP 422 with the exhausted budget and the
// live in-flight histogram at the cut.
func TestServiceRoundBudgetExhausted(t *testing.T) {
	s := New(Options{SchedWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	spec := smallGNP("starved")
	spec.MaxRounds = 3
	resp, v := postJSON(t, ts.URL+"/v1/jobs?wait=1", spec)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("wait status %d, want 422", resp.StatusCode)
	}
	if v.State != StateFailed || v.Error == nil || v.Error.Kind != "budget-exhausted" {
		t.Fatalf("starved job: %+v", v)
	}
	b := v.Error.Budget
	if b == nil {
		t.Fatal("budget-exhausted error carries no budget detail")
	}
	if b.MaxRounds != 3 {
		t.Errorf("budget max_rounds %d, want 3", b.MaxRounds)
	}
	if b.Pending <= 0 && b.Active <= 0 {
		t.Errorf("budget histogram is empty at the cut: %+v", b)
	}
	if v.Result != nil {
		t.Errorf("starved job carries a result: %+v", v.Result)
	}
}

// Cancelling a queued job via DELETE means its build never starts.
func TestServiceCancelQueuedJob(t *testing.T) {
	started := make(chan string, 8)
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, QueueDepth: 4, SchedWorkers: 2})
	s.beforeBuild = func(j *Job) { started <- j.ID; <-proceed }
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	_, j1 := postJSON(t, ts.URL+"/v1/jobs", smallGNP("blocker"))
	<-started
	_, j2 := postJSON(t, ts.URL+"/v1/jobs", smallGNP("doomed"))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}

	close(proceed)
	for _, id := range []string{j1.ID, j2.ID} {
		select {
		case <-s.Job(id).Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never finished", id)
		}
	}
	if got := s.Job(j1.ID).State(); got != StateDone {
		t.Errorf("blocker finished %q, want done", got)
	}
	v := s.Job(j2.ID).View()
	if v.State != StateCancelled || v.Result != nil || len(v.Started) != 0 {
		t.Errorf("cancelled queued job should never have started: %+v", v)
	}
}

// tinyPath is the cheapest valid workload — for tests that hammer
// Submit and never care about the build itself.
func tinyPath(name string) JobSpec {
	return JobSpec{
		Name:  name,
		Graph: GraphSpec{Type: "path", N: 16},
		Eps:   0.5, Kappa: 3, Rho: 0.49,
	}
}

// Concurrent submissions against a full queue must leave the registry
// consistent: every id in the listing resolves to a job, and the
// listing length matches the number of accepted submissions.
// Regression: the queue-full rollback used to truncate the last element
// of the order slice, which under concurrency could drop another
// submission's id — or leave a dangling id whose nil job made every
// subsequent GET /v1/jobs panic.
func TestServiceConcurrentSubmitQueueFullRegistryConsistent(t *testing.T) {
	proceed := make(chan struct{})
	s := New(Options{Builds: 1, QueueDepth: 1, SchedWorkers: 2})
	s.beforeBuild = func(*Job) { <-proceed }
	defer func() {
		close(proceed)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	var accepted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 16; k++ {
				if _, err := s.Submit(tinyPath("stress")); err == nil {
					accepted.Add(1)
				}
			}
		}()
	}
	wg.Wait()

	jobs := s.Jobs()
	if int64(len(jobs)) != accepted.Load() {
		t.Errorf("listing has %d jobs, %d submissions were accepted", len(jobs), accepted.Load())
	}
	for i, j := range jobs {
		if j == nil {
			t.Fatalf("Jobs()[%d] is nil — dangling id left in the order slice", i)
		}
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("GET /v1/jobs after queue-full stress: %d", rec.Code)
	}
}

// Submissions racing a drain must never strand a job: every accepted
// job is terminal by the time Drain returns — run, or cancelled by the
// queue flush — because the draining check + enqueue and the flag-flip
// + flush are mutually exclusive. Regression: a submission could
// previously slip into the queue after the flush and sit "queued"
// forever with no worker left to serve it.
func TestServiceSubmitDrainRaceNeverStrandsJob(t *testing.T) {
	for iter := 0; iter < 25; iter++ {
		s := New(Options{Builds: 1, QueueDepth: 4, SchedWorkers: 2})

		var (
			mu       sync.Mutex
			accepted []*Job
			wg       sync.WaitGroup
		)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 6; k++ {
					if j, err := s.Submit(tinyPath("race")); err == nil {
						mu.Lock()
						accepted = append(accepted, j)
						mu.Unlock()
					}
				}
			}()
		}

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.Drain(ctx)
		cancel()
		wg.Wait()

		for _, j := range accepted {
			select {
			case <-j.Done():
			default:
				t.Fatalf("iter %d: job %s stranded in state %q after drain", iter, j.ID, j.State())
			}
		}
	}
}

// An oversized upload is rejected with an explicit 413, not silently
// truncated into a confusing parse error.
func TestServiceOversizedBodyRejected(t *testing.T) {
	s := New(Options{SchedWorkers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	body := io.LimitReader(zeroReader{}, maxBodyBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs?eps=0.5&kappa=3&rho=0.49", body)
	req.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload: status %d, want 413 (body: %s)", rec.Code, rec.Body.String())
	}
}

// zeroReader yields '0' bytes forever — an oversized body without the
// client-side allocation.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// Health flips from 200 to 503 at drain.
func TestServiceHealthz(t *testing.T) {
	s := New(Options{SchedWorkers: 2})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz before drain: %d", rec.Code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained: %d", rec.Code)
	}
}

// A full daemon lifecycle — builds on every engine, on a private
// scheduler — must return the process to its baseline goroutine count
// after drain: no leaked workers, simulators, or HTTP plumbing.
func TestServiceShutdownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()

	_, url, shutdown := startDaemon(t, Options{Builds: 2, SchedWorkers: 4})
	var wg sync.WaitGroup
	for _, engine := range []string{"sequential", "parallel"} {
		wg.Add(1)
		go func(engine string) {
			defer wg.Done()
			spec := smallGNP("leakcheck-" + engine)
			spec.Engine = engine
			resp, v := postJSON(t, url+"/v1/jobs?wait=1", spec)
			if resp.StatusCode != http.StatusOK || v.State != StateDone {
				t.Errorf("%s job: status %d state %q", engine, resp.StatusCode, v.State)
			}
		}(engine)
	}
	wg.Wait()
	shutdown()
	http.DefaultClient.CloseIdleConnections()

	// Goroutine teardown is asynchronous; give it a bounded settle.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after drain: baseline %d, now %d\n%s",
				base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
