// Command figures renders the reproductions of the paper's Figures 1–8:
// each illustrative figure becomes a verified structural experiment plus
// an ASCII rendering on a grid workload (see README.md, "Command-line
// tools").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"nearspan/internal/experiments"
)

func main() {
	def := experiments.DefaultFigureConfig()
	var (
		rows    = flag.Int("rows", def.Rows, "grid rows")
		cols    = flag.Int("cols", def.Cols, "grid cols")
		tails   = flag.Int("tails", def.Tails, "number of tails (unpopular fringes)")
		tailLen = flag.Int("taillen", def.TailLen, "tail length")
		eps     = flag.Float64("eps", def.Eps, "internal epsilon")
		kappa   = flag.Int("kappa", def.Kappa, "kappa")
		rho     = flag.Float64("rho", def.Rho, "rho")
		timeout = flag.Duration("timeout", 0, "abort the figure build after this duration (0 = no limit)")
	)
	flag.Parse()
	fc := experiments.FigureConfig{
		Rows: *rows, Cols: *cols, Tails: *tails, TailLen: *tailLen,
		Eps: *eps, Kappa: *kappa, Rho: *rho,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := experiments.Figures(ctx, os.Stdout, fc); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "figures: interrupted (%v) — no figure output was truncated mid-section\n", err)
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "figures: %v\n", err)
		os.Exit(1)
	}
}
