package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testConfig(t *testing.T, workload string, trace bool) config {
	work := t.TempDir()
	return config{
		workload: workload, seed: 7, seconds: 0.2, trace: trace,
		workdir: work, golden: filepath.Join("..", "testdata", "golden_spanners.json"),
		spans: filepath.Join(work, "spans.jsonl"), procs: min(2, runtime.NumCPU()),
	}
}

// openSockets counts the process's open socket descriptors.
func openSockets(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if l, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(l, "socket:") {
			n++
		}
	}
	return n
}

// requireClean asserts that a finished run left no goroutine, socket or
// temporary directory behind.
func requireClean(t *testing.T, cfg config, goroutines, sockets int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the run, %d before:\n%s", n, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if n := openSockets(t); n > sockets {
		t.Fatalf("%d open sockets after the run, %d before", n, sockets)
	}
	entries, err := os.ReadDir(cfg.workdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "run-") {
			t.Fatalf("temporary directory %s left behind", e.Name())
		}
	}
}

// benchmarkMetrics returns the metric names BENCHMARK.json lists under
// key.
func benchmarkMetrics(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	return names
}

func requireMetrics(t *testing.T, res *result, key string) {
	t.Helper()
	got := map[string]bool{}
	for _, m := range res.metrics {
		got[m.name+" "+m.unit] = true
	}
	want := benchmarkMetrics(t, key)
	for _, w := range want {
		if !got[w] {
			t.Errorf("run does not report %s", w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json lists %d under %s", len(got), len(want), key)
	}
}

func TestShortRunIsCorrectAndLeavesNothingBehind(t *testing.T) {
	cfg := testConfig(t, "road-query", false)
	goroutines, sockets := runtime.NumGoroutine(), openSockets(t)
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !res.correct || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d failures=%v\n%s", res.correct, res.attempted, res.failed, res.failures, out.String())
	}
	requireMetrics(t, res, "end_to_end")
	requireClean(t, cfg, goroutines, sockets)
}

func TestTracedRunReportsLayers(t *testing.T) {
	cfg := testConfig(t, "road-query", true)
	goroutines, sockets := runtime.NumGoroutine(), openSockets(t)
	var out bytes.Buffer
	res, err := run(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !res.correct {
		t.Fatalf("failures: %v\n%s", res.failures, out.String())
	}
	requireMetrics(t, res, "per_layer")
	if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
		t.Fatalf("span file: %v", err)
	}
	requireClean(t, cfg, goroutines, sockets)
}

func TestInterruptedRunLeavesNothingBehind(t *testing.T) {
	cfg := testConfig(t, "churn", false)
	cfg.seconds = 60
	goroutines, sockets := runtime.NumGoroutine(), openSockets(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	var out bytes.Buffer
	if _, err := run(ctx, cfg, &out); err == nil {
		t.Fatal("interrupted run reported success")
	}
	requireClean(t, cfg, goroutines, sockets)
}
