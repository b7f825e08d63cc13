package core

import (
	"context"
	"fmt"

	"nearspan/internal/delta"
	"nearspan/internal/graph"
	"nearspan/internal/params"
	"nearspan/internal/protocols"
)

// RebuildState is the state a delta rebuild replays against: the source
// graph and, per construction phase, the near-neighbors run (center set,
// table and forward transcript). Build retains it under
// Options.KeepRebuildState; Rebuild results always carry a fresh one, so
// rebuilds chain across an arbitrary churn sequence.
type RebuildState struct {
	Graph  *graph.Graph
	Params *params.Params
	Phases []protocols.NNRun
}

// Rebuild constructs the spanner of prev's graph patched by batch,
// reusing prev's retained state: each phase's near-neighbors step — the
// dominant cost of a build — replays prev's run, recomputing only the
// vertices the delta can reach and only in the phases their hearings
// change (see protocols.ReplayNearNeighbors), and the cheap steps
// (ruling sets, forests, climbs) re-run in full on the patched graph
// over the spliced tables. The result is bit-identical to Build on the
// patched graph — same spanner fingerprint, same table contents — in
// every mode, however large the batch; only the work differs.
//
// prev must carry rebuild state (Options.KeepRebuildState, or itself a
// Rebuild result). opts selects the execution mode of the re-run steps;
// a zero Mode inherits prev's. The rebuild is one pass: an OnStep
// consumer sees each step once, the near-neighbors steps marked
// Replayed.
func Rebuild(ctx context.Context, prev *Result, batch *delta.Batch, opts Options) (*Result, error) {
	if prev == nil || prev.Rebuild == nil {
		return nil, fmt.Errorf("core: Rebuild requires a result built with Options.KeepRebuildState")
	}
	st := prev.Rebuild
	g2, err := delta.Apply(st.Graph, batch)
	if err != nil {
		return nil, err
	}
	if opts.Mode == 0 {
		opts.Mode = prev.Mode
	}
	opts.KeepRebuildState = true
	// batch is normalized by Apply.
	return buildWith(ctx, g2, st.Params, opts, st, batch.Endpoints())
}
