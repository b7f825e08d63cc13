package experiments

import (
	"context"
	"fmt"
	"io"

	"nearspan/internal/core"
	"nearspan/internal/params"
	"nearspan/internal/trace"
)

// PhaseBreakdown reports the per-phase protocol-step metrics of the
// distributed construction on cfg's workload — the per-phase
// round/message accounting the paper's analysis (and the related
// distributed-spanner literature) states its bounds in. The breakdown
// comes from the persistent network runtime: one simulator serves every
// session, and each session records its own rounds, messages, and peak
// round traffic.
func PhaseBreakdown(ctx context.Context, w io.Writer, cfg Config) error {
	p, err := params.New(cfg.Eps, cfg.Kappa, cfg.Rho, cfg.N())
	if err != nil {
		return err
	}
	res, err := core.Build(ctx, cfg.Graph, p, core.Options{Mode: core.ModeDistributed})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "per-phase protocol steps [%s: n=%d m=%d] — %d rounds, %d messages total\n",
		cfg.Name, cfg.N(), cfg.Graph.M(), res.TotalRounds, res.Messages)
	if _, err := io.WriteString(w, trace.StepTable(res.Steps)); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}
