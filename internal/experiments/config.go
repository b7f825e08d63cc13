// Package experiments regenerates every table and figure of the paper's
// evaluation (README.md, "Command-line tools", runs it): Table 1
// (deterministic CONGEST algorithms), Table 2 (the near-additive spanner
// panorama), structural experiments for Figures 1–8, the quantitative
// per-lemma claims of §2.4, and the ablations.
//
// Measured rows come from the implementations in this repository;
// analytic rows evaluate the cited papers' published bounds with their
// O-constants set to 1 (documented in every table note). The paper being
// a theory paper, "running time" is CONGEST rounds.
package experiments

import (
	"math"

	"nearspan/internal/gen"
	"nearspan/internal/graph"
)

// Config is one experiment configuration: a workload graph plus the
// shared parameter triple.
type Config struct {
	Name  string
	Graph *graph.Graph
	Eps   float64
	Kappa int
	Rho   float64
	Seed  uint64
}

// N returns the workload size.
func (c Config) N() int { return c.Graph.N() }

// DefaultConfigs is the standard experiment suite: a dense random graph
// (rich superclustering structure), a community graph (popularity
// contrast), a torus (sparse, symmetric — the regime where the spanner
// keeps everything), and a near-regular graph.
func DefaultConfigs() []Config {
	rr, err := gen.RandomRegular(512, 12, 77)
	if err != nil {
		panic("experiments: default workload: " + err.Error())
	}
	return []Config{
		{Name: "gnp-600", Graph: gen.GNP(600, 0.03, 41, true), Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, Seed: 1},
		{Name: "comm-500", Graph: gen.Communities(10, 50, 0.25, 0.002, 42), Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, Seed: 2},
		{Name: "regular-512", Graph: rr, Eps: 0.5, Kappa: 4, Rho: 0.45, Seed: 3},
		{Name: "torus-24", Graph: gen.Torus(24, 24), Eps: 0.5, Kappa: 4, Rho: 0.45, Seed: 4},
	}
}

// QuickConfigs is a reduced suite for benchmarks and smoke runs.
func QuickConfigs() []Config {
	return []Config{
		{Name: "gnp-300", Graph: gen.GNP(300, 0.05, 41, true), Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, Seed: 1},
		{Name: "comm-240", Graph: gen.Communities(6, 40, 0.3, 0.004, 42), Eps: 1.0 / 3, Kappa: 3, Rho: 0.49, Seed: 2},
	}
}

// --- Analytic bounds of the compared papers (O-constants = 1) ---

// logc is log base 2, clamped below at 1 so exponents like (log κ)
// stay meaningful for small κ.
func logc(x float64) float64 {
	v := math.Log2(x)
	if v < 1 {
		return 1
	}
	return v
}

// BetaEP01 is Elkin–Peleg's existential additive term
// (log κ / ε)^{log κ}.
func BetaEP01(eps float64, kappa int) float64 {
	lk := logc(float64(kappa))
	return math.Pow(lk/eps, lk)
}

// BetaElk05 is the additive term of the prior deterministic CONGEST
// algorithm [Elk05]: (κ/ε)^{log κ} · (1/ρ)^{1/ρ}.
func BetaElk05(eps float64, kappa int, rho float64) float64 {
	return math.Pow(float64(kappa)/eps, logc(float64(kappa))) * math.Pow(1/rho, 1/rho)
}

// BetaEN17 is the additive term of the randomized CONGEST algorithm
// [EN17]: ((log κρ + ρ⁻¹)/ε)^{log κρ + ρ⁻¹}.
func BetaEN17(eps float64, kappa int, rho float64) float64 {
	e := logc(float64(kappa)*rho) + 1/rho
	return math.Pow(e/eps, e)
}

// BetaNew is the paper's additive term (eq. 1):
// ((log κρ + ρ⁻¹)/(ρ·ε))^{log κρ + ρ⁻¹}.
func BetaNew(eps float64, kappa int, rho float64) float64 {
	e := logc(float64(kappa)*rho) + 1/rho
	return math.Pow(e/(rho*eps), e)
}

// RoundsElk05 is [Elk05]'s running time n^{1+1/(2κ)}.
func RoundsElk05(n, kappa int) float64 {
	return math.Pow(float64(n), 1+1/(2*float64(kappa)))
}

// RoundsEN17 is [EN17]'s running time n^ρ·ρ⁻¹·β·log n.
func RoundsEN17(eps float64, kappa int, rho float64, n int) float64 {
	return math.Pow(float64(n), rho) / rho * BetaEN17(eps, kappa, rho) * math.Log2(float64(n))
}

// RoundsNew is the paper's running time bound β·n^ρ·ρ⁻¹.
func RoundsNew(eps float64, kappa int, rho float64, n int) float64 {
	return BetaNew(eps, kappa, rho) * math.Pow(float64(n), rho) / rho
}

// SizeBound is the shared near-additive size shape β·n^{1+1/κ}.
func SizeBound(beta float64, n, kappa int) float64 {
	return beta * math.Pow(float64(n), 1+1/float64(kappa))
}

// CrossoverN returns the n beyond which the paper's round bound beats
// [Elk05]'s super-linear one: solving β·n^ρ/ρ = n^{1+1/(2κ)} gives
// n* = (β/ρ)^{1/(1+1/(2κ)−ρ)}.
func CrossoverN(eps float64, kappa int, rho float64) int {
	exp := 1 + 1/(2*float64(kappa)) - rho
	if exp <= 0 {
		return -1
	}
	return int(math.Ceil(math.Pow(BetaNew(eps, kappa, rho)/rho, 1/exp)))
}
