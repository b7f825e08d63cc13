package experiments

import (
	"context"
	"fmt"
	"io"
)

// Suite runs the full experiment set (README.md, "Command-line tools"),
// writing the report to w.
//
// Within each section the configuration grid fans out concurrently over
// the shared execution runtime (see runConcurrently); sections still
// run in order so the report reads top to bottom. Results are written
// as each section completes, so a cancelled context — the CLI wires it
// to SIGINT and -timeout — leaves every already-rendered section intact
// and returns ctx.Err() for the section in flight.
func Suite(ctx context.Context, w io.Writer, cfgs []Config) error {
	fmt.Fprintf(w, "=== Near-Additive Spanners in Deterministic CONGEST — experiment report ===\n\n")

	fmt.Fprintf(w, "--- Table 1: deterministic CONGEST algorithms ---\n\n")
	if err := Table1(ctx, w, cfgs); err != nil {
		return fmt.Errorf("table 1: %w", err)
	}

	fmt.Fprintf(w, "--- Per-phase round breakdown (persistent-network sessions) ---\n\n")
	for _, cfg := range cfgs[:minInt(2, len(cfgs))] {
		if err := PhaseBreakdown(ctx, w, cfg); err != nil {
			return fmt.Errorf("phase breakdown(%s): %w", cfg.Name, err)
		}
	}

	fmt.Fprintf(w, "--- Table 2: near-additive spanner panorama ---\n\n")
	if err := Table2(ctx, w, cfgs[0]); err != nil {
		return fmt.Errorf("table 2: %w", err)
	}

	fmt.Fprintf(w, "--- Figures 1-8: structural experiments ---\n\n")
	if err := Figures(ctx, w, DefaultFigureConfig()); err != nil {
		return fmt.Errorf("figures: %w", err)
	}

	fmt.Fprintf(w, "--- Quantitative claims (Lemmas 2.3-2.12, Corollaries 2.9/2.13/2.18) ---\n\n")
	for _, cfg := range cfgs[:minInt(2, len(cfgs))] {
		if err := Claims(ctx, w, cfg); err != nil {
			return fmt.Errorf("claims(%s): %w", cfg.Name, err)
		}
	}

	fmt.Fprintf(w, "--- Long-distance fidelity (the paper's motivation) ---\n\n")
	if err := LongDistance(ctx, w); err != nil {
		return fmt.Errorf("long-distance: %w", err)
	}

	fmt.Fprintf(w, "--- Round scaling ---\n\n")
	if err := RoundScaling(ctx, w); err != nil {
		return fmt.Errorf("round scaling: %w", err)
	}

	fmt.Fprintf(w, "--- Ablations ---\n\n")
	if err := AblationA1(ctx, w, cfgs[0]); err != nil {
		return fmt.Errorf("ablation A1: %w", err)
	}
	if err := AblationA2(ctx, w); err != nil {
		return fmt.Errorf("ablation A2: %w", err)
	}
	if err := AblationA4(ctx, w); err != nil {
		return fmt.Errorf("ablation A4: %w", err)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
