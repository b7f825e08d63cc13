package nearspan_test

import (
	"context"
	"testing"

	"nearspan/internal/core"
	"nearspan/internal/gen"
	"nearspan/internal/graph"
	"nearspan/internal/params"
)

// congestSchedule is what a distributed build costs in the model and in
// the simulator: rounds, messages, the busiest round's traffic, and
// program calls.
type congestSchedule struct {
	Rounds          int
	Messages        int64
	MaxRoundTraffic int64
	Invocations     int64
}

func distributedSchedule(t *testing.T, g *graph.Graph, eps float64, kappa int, rho float64) congestSchedule {
	t.Helper()
	p, err := params.New(eps, kappa, rho, g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Build(context.Background(), g, p, core.Options{Mode: core.ModeDistributed})
	if err != nil {
		t.Fatal(err)
	}
	s := congestSchedule{Rounds: res.TotalRounds, Messages: res.Messages}
	for _, st := range res.Steps {
		s.MaxRoundTraffic = max(s.MaxRoundTraffic, st.MaxRoundTraffic)
		s.Invocations += st.Invocations
	}
	return s
}

// TestDistributedSchedulePinned pins the CONGEST schedule of distributed
// builds: the gnp-256 golden cases, the spannerbench build shape
// (GNP(2048, 20/2047), seed 1) and the CLI's `-graph gnp -n 2048`
// instance (p = 0.03). The golden fingerprints hold the spanners only and
// the CLI scheduling smoke compares two runs with each other, so a change
// that moves a message or a program call without touching the spanner
// fails here and nowhere else. Rounds and messages are the model's cost;
// invocations are the simulator's, and a change that means to move them
// updates this table and says why.
func TestDistributedSchedulePinned(t *testing.T) {
	cases := []struct {
		name  string
		g     func() *graph.Graph
		eps   float64
		kappa int
		rho   float64
		want  congestSchedule
	}{
		{"gnp-256/k3", func() *graph.Graph { return gen.GNP(256, 16.0/256, 256, true) }, 1.0 / 3, 3, 0.49,
			congestSchedule{5104, 190232, 4652, 16749}},
		{"gnp-256/k4", func() *graph.Graph { return gen.GNP(256, 16.0/256, 256, true) }, 0.25, 4, 0.3,
			congestSchedule{1684247, 348139, 4652, 27342}},
		{"build-shape-2048", func() *graph.Graph { return gen.GNP(2048, 20.0/2047, 1, true) }, 1.0 / 3, 3, 0.49,
			congestSchedule{11909, 7807682, 45084, 415849}},
		{"cli-gnp-2048", func() *graph.Graph { return gen.GNP(2048, 0.03, 1, true) }, 1.0 / 3, 3, 0.49,
			congestSchedule{11904, 3704642, 129726, 107044}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := distributedSchedule(t, c.g(), c.eps, c.kappa, c.rho); got != c.want {
				t.Errorf("schedule %+v, want %+v", got, c.want)
			}
		})
	}
}
