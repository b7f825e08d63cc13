package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// crashSpec is the workload the crash test interrupts: big enough that
// a SIGKILL lands mid-build with high probability, small enough that
// the in-process reference build keeps the test fast.
var crashSpec = JobSpec{
	Name:  "crash-gnp-1024",
	Graph: GraphSpec{Type: "gnp", N: 1024, P: 16.0 / 1024, Seed: 1024, Connected: true},
	Eps:   1.0 / 3, Kappa: 3, Rho: 0.49,
	Mode: "distributed",
}

// buildSpannerd compiles the real daemon binary once per test run.
func buildSpannerd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "spannerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/spannerd")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/spannerd: %v\n%s", err, out)
	}
	return bin
}

// startSpannerd launches the binary on a random port with the given
// data dir and returns the process plus its base URL, parsed from the
// "listening on" log line.
func startSpannerd(t *testing.T, bin, dataDir string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "never", "-builds", "1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrRe := regexp.MustCompile(`listening on (\S+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Keep draining so the child never blocks on a full pipe.
		for sc.Scan() {
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("spannerd never logged its listen address")
		return nil, ""
	}
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		json.NewDecoder(resp.Body).Decode(v)
	}
	return resp.StatusCode
}

// The crash e2e against the real binary: SIGKILL the daemon mid-build,
// restart it on the same data directory, and require the recovered
// job's spanner bit-identical to an in-process reference build — the
// whole point of journaling inputs for a deterministic construction.
// The restarted daemon must also answer ?path=1 queries from the
// recovered pool.
func TestServiceCrashSIGKILLRecoverBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real-process crash test skipped in -short mode")
	}
	bin := buildSpannerd(t)
	dataDir := t.TempDir()

	// Reference: the same deterministic build, in-process.
	g := gen.GNP(1024, 16.0/1024, 1024, true)
	p, err := params.New(1.0/3, 3, 0.49, g.N())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.Build(context.Background(), g, p,
		core.Options{Mode: core.ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantFP := graph.Fingerprint(ref.Spanner)

	// First life: submit, wait for the build to start, SIGKILL.
	cmd, url := startSpannerd(t, bin, dataDir)
	if resp, view := postJSON(t, url+"/v1/jobs", crashSpec); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %+v", resp.StatusCode, view)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var view JobView
		getJSON(t, url+"/v1/jobs/j000001", &view)
		// Running is the interesting window; done is an acceptable race
		// (recovery then reloads the snapshot instead of re-building —
		// the fingerprint assertion is identical).
		if view.State == StateRunning || view.State == StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %q)", view.State)
		}
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is the kill, not an error of the test

	// Second life: same data dir, fresh process.
	cmd2, url2 := startSpannerd(t, bin, dataDir)
	defer func() {
		cmd2.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			cmd2.Process.Kill()
			t.Error("restarted daemon did not exit on SIGTERM")
		}
	}()

	deadline = time.Now().Add(60 * time.Second)
	for getJSON(t, url2+"/readyz", nil) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never became ready")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The job is back under its original id and finishes (recovered
	// done, or re-enqueued and re-built) with the reference fingerprint.
	var view JobView
	deadline = time.Now().Add(120 * time.Second)
	for {
		if code := getJSON(t, url2+"/v1/jobs/j000001", &view); code != http.StatusOK {
			t.Fatalf("job status after restart: %d", code)
		}
		if view.State == StateDone || view.State == StateFailed || view.State == StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered job never finished (state %q)", view.State)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if view.State != StateDone || view.Result == nil {
		t.Fatalf("recovered job: state %q, %+v", view.State, view.Error)
	}
	if view.Result.Fingerprint != wantFP || view.Result.Edges != wantM {
		t.Fatalf("recovered spanner (m=%d, %s), reference (m=%d, %s)",
			view.Result.Edges, view.Result.Fingerprint, wantM, wantFP)
	}

	// The recovered pool answers, path included, within the guarantee.
	var ans struct {
		Dist int32   `json:"dist"`
		Path []int32 `json:"path"`
	}
	if code := getJSON(t, url2+"/v1/jobs/j000001/query?u=0&v=9&path=1", &ans); code != http.StatusOK {
		t.Fatalf("query after restart: %d", code)
	}
	if ans.Dist < 0 {
		t.Fatal("recovered spanner disconnected 0 and 9 (input is connected)")
	}
	if len(ans.Path) != int(ans.Dist)+1 {
		t.Fatalf("path length %d for dist %d", len(ans.Path), ans.Dist)
	}
	for i := 0; i+1 < len(ans.Path); i++ {
		if !ref.Spanner.HasEdge(int(ans.Path[i]), int(ans.Path[i+1])) {
			t.Fatalf("recovered path hop {%d,%d} is not a spanner edge", ans.Path[i], ans.Path[i+1])
		}
	}

	// The survivor keeps accepting new work on the recovered id space.
	small := crashSpec
	small.Name = "post-crash"
	small.Graph = GraphSpec{Type: "gnp", N: 128, P: 12.0 / 128, Seed: 7, Connected: true}
	resp, view2 := postJSON(t, url2+"/v1/jobs?wait=1", small)
	if resp.StatusCode != http.StatusOK || view2.State != StateDone {
		t.Fatalf("post-crash submit: %d, state %q (%+v)", resp.StatusCode, view2.State, view2.Error)
	}
	if view2.ID != "j000002" {
		t.Fatalf("post-crash id %s, want j000002", view2.ID)
	}
}
