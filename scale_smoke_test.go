//go:build scale

package nearspan_test

import (
	"context"
	"testing"
	"time"

	"nearspan/internal/experiments"
)

// TestScaleSmoke10M is the 10⁷-edge end-to-end smoke: stream-generate a
// GNP graph at n = 65536, run the full distributed construction with
// unicast lists grown by the traffic, and verify the scale-regime
// acceptance criteria — the build completes, the measured arena sits at
// least 4× below the worst-case preallocation it replaced, and a
// sampled stretch check passes. Gated behind the `scale` build tag (CI
// runs it in its own job under GOMEMLIMIT):
//
//	go test -tags scale -run TestScaleSmoke10M -timeout 30m .
func TestScaleSmoke10M(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Minute)
	defer cancel()
	res, err := experiments.ScaleRun(ctx, experiments.ScaleSpec{
		TargetEdges:   10_000_000,
		VerifySamples: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("n=%d m=%d gen=%.1fs build=%.1fs rounds=%d messages=%d spanner=%d",
		res.N, res.M, res.GenSeconds, res.BuildSeconds, res.TotalRounds, res.Messages, res.SpannerEdges)
	t.Logf("arena=%.1f MiB vs worst-case %.1f MiB, process Sys=%.1f MiB, hash=%s",
		float64(res.ArenaBytes)/(1<<20), float64(res.ArenaWorstCase)/(1<<20),
		float64(res.SysBytes)/(1<<20), res.SampledHash)

	if res.M < 9_000_000 || res.M > 11_000_000 {
		t.Errorf("realized edge count %d, want ~10⁷", res.M)
	}
	if res.ArenaBytes <= 0 {
		t.Fatalf("no arena measurement: ArenaBytes = %d", res.ArenaBytes)
	}
	// The tentpole criterion: the measured arena stays ≥ 4× below what
	// the legacy worst-case preallocation would have pinned. (The true
	// pre-scale-up footprint was larger still — it also carried 8 bytes
	// per slot of destination tables the slot-identity layout removed.)
	if 4*res.ArenaBytes > res.ArenaWorstCase {
		t.Errorf("arena headroom %.1fx, want >= 4x (measured %d, worst case %d)",
			float64(res.ArenaWorstCase)/float64(res.ArenaBytes), res.ArenaBytes, res.ArenaWorstCase)
	}
	if res.SampledHash == "" {
		t.Error("empty sampled spanner fingerprint")
	}
	if !res.Verified || !res.StretchOK {
		t.Errorf("sampled stretch verification failed (verified=%v ok=%v)", res.Verified, res.StretchOK)
	}
}
