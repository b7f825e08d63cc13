package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nearspan/internal/delta"
	"nearspan/internal/store"
)

// recoverySpec is a small, fast workload the recovery tests reuse; the
// sequential engine keeps single-test wall clock low and the result is
// bit-identical across engines anyway.
var recoverySpec = JobSpec{
	Name:  "recovery-gnp-128",
	Graph: GraphSpec{Type: "gnp", N: 128, P: 12.0 / 128, Seed: 7, Connected: true},
	Eps:   1.0 / 3, Kappa: 3, Rho: 0.49,
	Mode: "distributed", Engine: "sequential",
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

func waitTerminal(t *testing.T, job *Job) {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s not terminal within 60s (state %s)", job.ID, job.State())
	}
}

func waitReady(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.WaitReady(ctx); err != nil {
		t.Fatalf("server never became ready: %v", err)
	}
}

// The restart round-trip: a daemon builds a spanner, applies a delta,
// sees one job fail, and is replaced by a fresh process on the same
// data directory. The successor must present the identical job registry
// — same ids, same terminal states, bit-identical fingerprints — and
// its reloaded query pool must answer.
func TestServiceRecoveryRestartRestoresJobs(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Options{Builds: 1, SchedWorkers: 2, Store: st, QueryReplicas: 1})
	waitReady(t, s1)

	// Job 1: build, then one delta patch.
	job1, err := s1.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job1)
	if job1.State() != StateDone {
		t.Fatalf("job1 finished %q", job1.State())
	}
	batch := sampleBatch(t, job1.graphSnapshot(), 3)
	if jerr := s1.RebuildJob(job1, batch); jerr != nil {
		t.Fatalf("patch: %+v", jerr)
	}
	v1 := job1.View()

	// Job 2: exhausts its round budget — a terminal failure.
	failSpec := recoverySpec
	failSpec.MaxRounds = 1
	job2, err := s1.Submit(failSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job2)
	if job2.State() != StateFailed {
		t.Fatalf("job2 finished %q, want failed", job2.State())
	}
	drainServer(t, s1)
	st.Close()

	// Simulate a crash mid-build: an accepted record with no terminal
	// record, exactly what a SIGKILL between enqueue and completion
	// leaves behind.
	st = openStore(t, dir)
	specJSON, _ := json.Marshal(acceptedData{Spec: recoverySpec})
	if err := st.Append(store.Record{
		Type: "accepted", Job: "j000003",
		Time: time.Now().UTC().Format(time.RFC3339Nano), Data: specJSON,
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// The successor process.
	st = openStore(t, dir)
	defer st.Close()
	s2 := New(Options{Builds: 1, SchedWorkers: 2, Store: st, QueryReplicas: 1})
	defer drainServer(t, s2)
	waitReady(t, s2)

	// Job 1 is done again, fingerprint and delta count intact, from the
	// snapshot (no rebuild).
	r1 := s2.Job("j000001")
	if r1 == nil || r1.State() != StateDone {
		t.Fatalf("job1 after restart: %+v", r1)
	}
	rv1 := r1.View()
	if rv1.Result.Fingerprint != v1.Result.Fingerprint || rv1.Result.Edges != v1.Result.Edges {
		t.Fatalf("job1 fingerprint after restart (m=%d, %s), want (m=%d, %s)",
			rv1.Result.Edges, rv1.Result.Fingerprint, v1.Result.Edges, v1.Result.Fingerprint)
	}
	if rv1.Result.Deltas != 1 {
		t.Fatalf("job1 lost its delta count: %d", rv1.Result.Deltas)
	}
	if s2.met.recoveredSnapshot.Load() != 1 {
		t.Fatalf("recoveredSnapshot = %d, want 1", s2.met.recoveredSnapshot.Load())
	}
	if pool := r1.QueryPool(); pool == nil {
		t.Fatal("job1 has no query pool after restart")
	} else if d := pool.Dist(0, 1); d < 0 {
		t.Fatalf("restored pool answered %d", d)
	}

	// Job 2 is failed again with the journaled error.
	r2 := s2.Job("j000002")
	if r2 == nil || r2.State() != StateFailed {
		t.Fatalf("job2 after restart: %v", r2)
	}
	if rv2 := r2.View(); rv2.Error == nil || rv2.Error.Kind != "budget-exhausted" {
		t.Fatalf("job2 error after restart: %+v", r2.View().Error)
	}

	// Job 3 — interrupted — was re-enqueued and runs to the same
	// spanner job 1 originally built (same spec, deterministic build).
	r3 := s2.Job("j000003")
	if r3 == nil {
		t.Fatal("interrupted job not restored")
	}
	waitTerminal(t, r3)
	if r3.State() != StateDone {
		t.Fatalf("recovered job finished %q (%+v)", r3.State(), r3.View().Error)
	}
	// Note job1's CURRENT fingerprint reflects the delta; job3 built the
	// un-patched spec, so compare against job1's pre-delta history is
	// not available — instead require determinism directly: a second
	// restart must reload job3 from its fresh snapshot.
	fp3 := r3.View().Result.Fingerprint

	// New submissions pick up ids after the recovered ones.
	job4, err := s2.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	if job4.ID != "j000004" {
		t.Fatalf("post-recovery id %s, want j000004", job4.ID)
	}
	waitTerminal(t, job4)
	if got := job4.View().Result.Fingerprint; got != fp3 {
		t.Fatalf("same spec built %s before restart and %s after", fp3, got)
	}
}

// A corrupt snapshot must cost a rebuild, never a wrong answer: flip
// bytes in the snapshot file, restart, and require the job back with
// the bit-identical fingerprint via the rebuild path, the corruption
// counted, and the snapshot healed for the boot after that.
func TestServiceRecoveryCorruptSnapshotRebuilds(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	waitReady(t, s1)
	job, err := s1.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	want := job.View().Result.Fingerprint
	drainServer(t, s1)
	st.Close()

	snap := filepath.Join(dir, "snapshots", "j000001.snap")
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{len(raw) / 3, len(raw) / 2, 2 * len(raw) / 3} {
		raw[i] ^= 0x55
	}
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, dir)
	s2 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	waitReady(t, s2)
	r := s2.Job("j000001")
	if r == nil || r.State() != StateDone {
		t.Fatalf("job after corrupt-snapshot restart: %v", r)
	}
	if got := r.View().Result.Fingerprint; got != want {
		t.Fatalf("rebuilt fingerprint %s, want %s", got, want)
	}
	if s2.met.snapshotCorruptions.Load() != 1 || s2.met.recoveredRebuild.Load() != 1 {
		t.Fatalf("corruptions=%d rebuilds=%d, want 1/1",
			s2.met.snapshotCorruptions.Load(), s2.met.recoveredRebuild.Load())
	}
	drainServer(t, s2)
	st.Close()

	// The rebuild re-snapshotted: the third boot loads cleanly.
	st = openStore(t, dir)
	defer st.Close()
	s3 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	defer drainServer(t, s3)
	waitReady(t, s3)
	if s3.met.recoveredSnapshot.Load() != 1 || s3.met.snapshotCorruptions.Load() != 0 {
		t.Fatalf("healed snapshot not used: snapshot=%d corruptions=%d",
			s3.met.recoveredSnapshot.Load(), s3.met.snapshotCorruptions.Load())
	}
	drainServer(t, s3)
}

// A data dir written by an older binary can journal a spec naming an
// engine this binary no longer has. Recovery must bring such a job back
// done on the default engine with its journaled fingerprint, and a spec
// that no longer validates for any other reason must be counted as
// dropped rather than vanish without a trace.
func TestServiceRecoveryRemovedEngineFallsBack(t *testing.T) {
	// Produce the journaled outcome the older binary would have recorded.
	st := openStore(t, t.TempDir())
	s1 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	waitReady(t, s1)
	job, err := s1.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	want := job.View().Result
	drainServer(t, s1)
	st.Close()

	dir := t.TempDir()
	st = openStore(t, dir)
	legacy := recoverySpec
	legacy.Engine = "goroutine"
	invalid := recoverySpec
	invalid.Mode = "quantum"
	now := time.Now().UTC().Format(time.RFC3339Nano)
	for _, rec := range []struct {
		typ, job string
		data     any
	}{
		{recAccepted, "j000001", acceptedData{Spec: legacy}},
		{recDone, "j000001", doneData{Result: want}},
		{recAccepted, "j000002", acceptedData{Spec: invalid}},
	} {
		data, _ := json.Marshal(rec.data)
		if err := st.Append(store.Record{Type: rec.typ, Job: rec.job, Time: now, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st = openStore(t, dir)
	defer st.Close()
	s2 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	defer drainServer(t, s2)
	waitReady(t, s2)
	r := s2.Job("j000001")
	if r == nil || r.State() != StateDone {
		t.Fatalf("goroutine-engine job after restart: %v", r)
	}
	if got := r.View().Result; got.Fingerprint != want.Fingerprint || got.Edges != want.Edges {
		t.Fatalf("recovered (m=%d, %s), journal records (m=%d, %s)",
			got.Edges, got.Fingerprint, want.Edges, want.Fingerprint)
	}
	if s2.met.recoveredRebuild.Load() != 1 {
		t.Fatalf("recoveredRebuild = %d, want 1 (no snapshot in the hand-written dir)", s2.met.recoveredRebuild.Load())
	}
	if s2.Job("j000002") != nil {
		t.Fatal("job with an invalid journaled spec was restored")
	}
	if got := s2.met.recoveredDropped.Load(); got != 1 {
		t.Fatalf("recoveredDropped = %d, want 1", got)
	}
}

// /readyz gates traffic while recovery runs: 503 "recovering" with
// /healthz already 200, submissions and patches shed with 503, then 200
// "ready" once the (gated) replay completes.
func TestServiceReadyzGatesUntilRecovered(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	gate := make(chan struct{})
	s, url, shutdown := startDaemon(t, Options{Builds: 1, Store: st, recoverGate: gate})
	defer shutdown()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "recovering") {
		t.Fatalf("/readyz while recovering: %d %q", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while recovering: %d", code)
	}
	if resp, _ := postJSON(t, url+"/v1/jobs", recoverySpec); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while recovering: %d", resp.StatusCode)
	}
	if jerr := s.RebuildJob(&Job{}, &delta.Batch{}); jerr == nil || jerr.HTTPStatus != 503 {
		t.Fatalf("patch while recovering: %+v", jerr)
	}

	close(gate)
	waitReady(t, s)
	if code, body := get("/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz after recovery: %d %q", code, body)
	}
	job, err := s.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if job.State() != StateDone {
		t.Fatalf("post-ready job finished %q", job.State())
	}
}

// failAfterWriter passes writes through until the flag flips, then
// fails every write — the moment the journal device "dies".
type failAfterWriter struct {
	w    io.Writer
	dead *atomic.Bool
	err  error
}

func (f *failAfterWriter) Write(p []byte) (int, error) {
	if f.dead.Load() {
		return 0, f.err
	}
	return f.w.Write(p)
}

// When the journal device dies mid-flight the daemon degrades instead
// of dying: submissions and patches shed with 503 + reason, while
// queries against already-built spanners keep answering.
func TestServicePersistenceErrorDegradesToReadOnly(t *testing.T) {
	var dead atomic.Bool
	injected := errors.New("journal device gone")
	st, err := store.Open(store.Options{
		Dir: t.TempDir(), Fsync: store.FsyncNever,
		WrapWriter: func(kind, name string, w io.Writer) io.Writer {
			if kind != "journal" {
				return w
			}
			return &failAfterWriter{w: w, dead: &dead, err: injected}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	defer drainServer(t, s)
	waitReady(t, s)

	job, err := s.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if job.State() != StateDone {
		t.Fatalf("job finished %q", job.State())
	}

	dead.Store(true)
	if _, err := s.Submit(recoverySpec); !errors.Is(err, ErrPersistence) {
		t.Fatalf("submit on dead journal returned %v, want ErrPersistence", err)
	}
	// Sticky: the device "coming back" must not revive acceptance — the
	// journal may have torn.
	dead.Store(false)
	if _, err := s.Submit(recoverySpec); !errors.Is(err, ErrPersistence) {
		t.Fatalf("submit after degrade returned %v, want ErrPersistence", err)
	}
	if jerr := s.RebuildJob(job, sampleBatch(t, job.graphSnapshot(), 2)); jerr == nil || jerr.HTTPStatus != 503 {
		t.Fatalf("patch on degraded store: %+v", jerr)
	}
	// The query tier is untouched.
	if pool := job.QueryPool(); pool == nil || pool.Dist(0, 1) < 0 {
		t.Fatal("queries stopped answering after persistence degrade")
	}
	if !s.persistSnapshotStats().readOnly {
		t.Fatal("persistence stats do not report read-only")
	}
}

// A panicking build must fail its own job — panic text in the terminal
// record — and leave the daemon serving. With a store attached, the
// failure is durable: a restart restores the same terminal state
// instead of re-running the poisoned job.
func TestServiceBuildPanicFailsJobKeepsServing(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	waitReady(t, s)
	s.beforeBuild = func(j *Job) {
		if j.Spec.Name == "poisoned" {
			panic("synthetic build bug 0xdead")
		}
	}

	bad := recoverySpec
	bad.Name = "poisoned"
	job, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if job.State() != StateFailed {
		t.Fatalf("panicked job finished %q", job.State())
	}
	v := job.View()
	if v.Error == nil || v.Error.Kind != "panic" || !strings.Contains(v.Error.Message, "synthetic build bug 0xdead") {
		t.Fatalf("panicked job error: %+v", v.Error)
	}

	// The worker survived: the next job builds normally.
	ok, err := s.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ok)
	if ok.State() != StateDone {
		t.Fatalf("job after panic finished %q (%+v)", ok.State(), ok.View().Error)
	}
	drainServer(t, s)
	st.Close()

	// Restart: the panic is a journaled terminal state, not a retry loop.
	st = openStore(t, dir)
	defer st.Close()
	s2 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	defer drainServer(t, s2)
	waitReady(t, s2)
	r := s2.Job(job.ID)
	if r == nil || r.State() != StateFailed {
		t.Fatalf("panicked job after restart: %v", r)
	}
	if rv := r.View(); rv.Error == nil || !strings.Contains(rv.Error.Message, "synthetic build bug 0xdead") {
		t.Fatalf("panic text lost across restart: %+v", r.View().Error)
	}
}

// The recovery metrics surface in the exposition text.
func TestServiceMetricsExposeRecoveryCounters(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1 := New(Options{Builds: 1, SchedWorkers: 2, Store: st})
	waitReady(t, s1)
	job, err := s1.Submit(recoverySpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	drainServer(t, s1)
	st.Close()

	st = openStore(t, dir)
	defer st.Close()
	_, url, shutdown := startDaemon(t, Options{Builds: 1, Store: st})
	defer shutdown()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`spannerd_recoveries_total{kind="snapshot"} 1`,
		"spannerd_snapshot_corruptions_total 0",
		"spannerd_journal_bytes",
		"spannerd_persistence_readonly 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
