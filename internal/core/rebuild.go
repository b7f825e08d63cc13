package core

import (
	"context"
	"errors"
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

// maxAffectedFraction is Rebuild's fallback-to-full threshold: a dirty
// frontier past a quarter of the vertices no longer amortizes against a
// full build. Either path gives the identical result; the threshold only
// picks the cheaper one. A var only so tests can force either path.
var maxAffectedFraction = 0.25

// errAffectedTooLarge aborts the incremental path when a phase's dirty
// frontier exceeds the fallback threshold; Rebuild catches it and runs a
// full build on the patched graph instead.
var errAffectedTooLarge = errors.New("core: delta affected region exceeds fallback threshold")

// Rebuild constructs the spanner of prev's graph patched by batch,
// reusing prev's retained state: each phase's near-neighbors step — the
// dominant cost of a build — replays prev's run, recomputing only the
// vertices the delta can reach and only in the phases their hearings
// change (see protocols.ReplayNearNeighbors), and the cheap steps
// (ruling sets, forests, climbs) re-run in full on the patched graph
// over the spliced tables. The result is bit-identical to Build on the
// patched graph — same spanner fingerprint, same table contents — in
// every mode; only the work differs.
//
// prev must carry rebuild state (Options.KeepRebuildState, or itself a
// Rebuild result). opts selects the execution mode of the re-run steps;
// a zero Mode inherits prev's. When a phase's dirty frontier exceeds a
// quarter of n, Rebuild falls back to a full Build of the patched graph
// (Result.Incremental reports which path produced the result). The
// fallback restarts the metrics stream: an OnStep consumer
// sees the partial incremental phases again as full ones.
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
	p := st.Params

	maxTracked := max(int(maxAffectedFraction*float64(g2.N())), 1)
	seeds := batch.Endpoints() // batch is normalized by Apply

	hook := func(ctx context.Context, phase int, centers []int) (protocols.NNRun, int, error) {
		if err := ctx.Err(); err != nil {
			return protocols.NNRun{}, 0, err
		}
		if phase >= len(st.Phases) {
			// Same params, same n: the phase schedule cannot differ.
			return protocols.NNRun{}, 0,
				fmt.Errorf("core: rebuild state has %d phases, build reached phase %d", len(st.Phases), phase)
		}
		run, tracked, ok := protocols.ReplayNearNeighbors(g2, &st.Phases[phase], centers, seeds,
			p.Deg[phase], p.Delta[phase], maxTracked)
		if !ok {
			return protocols.NNRun{}, 0, errAffectedTooLarge
		}
		return run, tracked, nil
	}

	res, err := buildWith(ctx, g2, p, opts, hook)
	if err != nil {
		if !errors.Is(err, errAffectedTooLarge) {
			return nil, err
		}
		res, err = buildWith(ctx, g2, p, opts, nil)
		if err != nil {
			return nil, err
		}
		return res, nil
	}
	res.Incremental = true
	return res, nil
}
