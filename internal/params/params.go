// Package params computes the phase schedule of the spanner construction:
// the number of phases, the stage boundaries, and the per-phase distance
// and degree thresholds (paper §2.1, eqs. 2–3), together with the derived
// quantities of §2.4 (radius bounds, β, rescaling).
//
// The paper states the schedule over the reals; execution needs integers.
// Every rounding here goes in the direction that preserves the paper's
// inequalities: thresholds round up (larger exploration radii and ruling
// set parameters only help coverage), so stretch guarantees survive
// integerization, at the cost of constant-factor round/size overhead.
package params

import (
	"fmt"
	"math"
)

// Params is the validated parameter set of one spanner construction.
type Params struct {
	// Eps is the paper's internal ε (before the §2.4.4 rescaling): it
	// controls the per-phase distance scale δ_i ≈ ε^{-i}.
	Eps float64
	// Kappa (κ >= 2) controls the spanner size exponent: O(β·n^{1+1/κ})
	// edges.
	Kappa int
	// Rho (1/κ <= ρ < 1/2) controls the round budget: O(β·n^ρ/ρ) rounds.
	Rho float64
	// N is the number of vertices.
	N int
	// NEstimate is the vertex count known to the vertices: the paper
	// (§1.3.1) only requires an estimate ñ with n <= ñ <= poly(n). All
	// thresholds (deg_i, the ruling-set digit base) derive from
	// NEstimate; guarantees survive over-estimation because every
	// inequality in the analysis uses the thresholds as upper bounds.
	// New sets NEstimate = N; NewWithEstimate overrides it.
	NEstimate int

	// Derived quantities (computed by New):

	// L is ℓ = ⌊log2(κρ)⌋ + ⌈(κ+1)/(κρ)⌉ − 1, the index of the last
	// phase.
	L int
	// I0 is the last phase of the exponential-growth stage,
	// ⌊log2(κρ)⌋.
	I0 int
	// C is the ruling-set locality parameter: ⌈1/ρ⌉ digit positions.
	// The effective ρ̂ = 1/C (≤ ρ) replaces ρ in all radius formulas so
	// that integer arithmetic never under-covers.
	C int
	// Deg[i] is the popularity threshold deg_i of phase i.
	Deg []int
	// Delta[i] is the distance threshold δ_i = ⌈ε^{-i}⌉ + 2·R[i].
	Delta []int32
	// R[i] is the integer radius bound: R_0 = 0,
	// R_{i+1} = ⌈(2/ρ̂)·ε^{-i}⌉ + (5·C)·R_i (eq. 2 with ρ̂ = 1/C).
	R []int32
}

// New validates (eps, kappa, rho) for an n-vertex graph and derives the
// schedule. Constraints follow Corollary 2.18: 0 < ε, κ >= 2,
// 1/κ <= ρ < 1/2. ε > ρ/10 is allowed (the algorithm runs and the
// measured stretch is still reported) but GuaranteeOK reports whether the
// analytic (1+ε', β) bound of §2.4 applies.
func New(eps float64, kappa int, rho float64, n int) (*Params, error) {
	return NewWithEstimate(eps, kappa, rho, n, n)
}

// NewWithEstimate derives the schedule when vertices know only an
// estimate nTilde of the vertex count, n <= nTilde (paper §1.3.1: the
// results apply for n <= ñ <= poly(n)). Larger estimates inflate the
// degree thresholds and the ruling-set schedule — costing rounds, never
// correctness.
func NewWithEstimate(eps float64, kappa int, rho float64, n, nTilde int) (*Params, error) {
	if n < 1 {
		return nil, fmt.Errorf("params: n = %d < 1", n)
	}
	if nTilde < n {
		return nil, fmt.Errorf("params: estimate %d below n = %d", nTilde, n)
	}
	// The ranges are tested as negated inclusions so NaN fails them.
	if !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("params: eps = %v out of (0, 1]", eps)
	}
	if kappa < 2 {
		return nil, fmt.Errorf("params: kappa = %d < 2", kappa)
	}
	if !(rho >= 1/float64(kappa) && rho < 0.5) {
		return nil, fmt.Errorf("params: rho = %v out of [1/kappa, 1/2) for kappa = %d", rho, kappa)
	}

	p := &Params{Eps: eps, Kappa: kappa, Rho: rho, N: n, NEstimate: nTilde}
	p.I0 = int(math.Floor(math.Log2(float64(kappa) * rho)))
	if p.I0 < 0 {
		// κρ >= 1 by the constraint ρ >= 1/κ, so log2(κρ) >= 0; guard
		// against floating-point dust at κρ == 1.
		p.I0 = 0
	}
	p.L = p.I0 + int(math.Ceil(float64(kappa+1)/(float64(kappa)*rho))) - 1
	p.C = int(math.Ceil(1 / rho))

	p.Deg = make([]int, p.L+1)
	for i := 0; i <= p.L; i++ {
		if i <= p.I0 {
			// Exponential growth stage: deg_i = n^{2^i/κ}.
			p.Deg[i] = ceilPow(nTilde, math.Exp2(float64(i))/float64(kappa))
		} else {
			// Fixed growth stage and the concluding phase: deg_i = n^ρ.
			p.Deg[i] = ceilPow(nTilde, rho)
		}
		if p.Deg[i] < 1 {
			p.Deg[i] = 1
		}
	}

	p.R = make([]int32, p.L+2)
	p.Delta = make([]int32, p.L+1)
	p.R[0] = 0
	for i := 0; i <= p.L; i++ {
		p.Delta[i] = int32(math.Ceil(invPow(eps, i))) + 2*p.R[i]
		// R_{i+1} = (2/ρ̂)·ε^{-i} + (5/ρ̂)·R_i with ρ̂ = 1/C, rounded up.
		p.R[i+1] = int32(math.Ceil(2*float64(p.C)*invPow(eps, i))) + int32(5*p.C)*p.R[i]
	}
	return p, nil
}

// ceilPow returns ⌈n^e⌉ computed with a correction loop so that float
// imprecision never rounds an exact power down or up spuriously.
func ceilPow(n int, e float64) int {
	v := math.Pow(float64(n), e)
	r := int(math.Ceil(v - 1e-9))
	if r < 0 {
		return 0
	}
	return r
}

// invPow returns ε^{-i}.
func invPow(eps float64, i int) float64 {
	return math.Pow(1/eps, float64(i))
}

// GuaranteeOK reports whether the parameters satisfy the preconditions of
// the stretch analysis (§2.4: ε <= 1/10 and ρ̂ >= 10ε, normalizing the
// paper's "ρ ≥ 10" typo, which no ρ < 1/2 meets).
func (p *Params) GuaranteeOK() bool {
	rhoHat := 1 / float64(p.C)
	return p.Eps <= 0.1+1e-12 && rhoHat >= 10*p.Eps-1e-12
}

// Beta is the additive stretch term for the internal ε: β = ε^{-ℓ}
// (eq. 17).
func (p *Params) Beta() float64 {
	return invPow(p.Eps, p.L)
}

// BetaInt is β rounded up to an integer, as used in (1+ε', β) checks.
func (p *Params) BetaInt() int32 {
	return int32(math.Ceil(p.Beta() - 1e-9))
}

// EpsPrime is the rescaled ε' = 30·ε·ℓ/ρ̂ of §2.4.4: the multiplicative
// stretch of the final spanner is 1+ε'.
func (p *Params) EpsPrime() float64 {
	if p.L == 0 {
		// A single-phase schedule adds no multi-segment error; the
		// analysis degenerates to the phase-0 interconnection, which is
		// exact on each segment.
		return 0
	}
	return 30 * p.Eps * float64(p.L) / (1 / float64(p.C))
}

// Guarantee returns the spanner's stretch bound (alpha, beta) = (1+ε',
// ⌈β⌉) of Corollary 2.18: every vertex pair satisfies
// d_G(u,v) <= d_H(u,v) <= alpha·d_G(u,v) + beta. It is the one place the
// bound is formed; stretch checks and query answers take it from here.
func (p *Params) Guarantee() (alpha float64, beta int32) {
	return 1 + p.EpsPrime(), p.BetaInt()
}

// FromTarget derives internal parameters from a target ε' (the final
// multiplicative slack the caller wants), inverting the §2.4.4
// rescaling: ε = ε'·ρ̂/(30ℓ). ℓ depends only on κ and ρ, so the
// inversion is exact.
func FromTarget(epsPrime float64, kappa int, rho float64, n int) (*Params, error) {
	if !(epsPrime > 0 && epsPrime <= 1) {
		return nil, fmt.Errorf("params: target eps' = %v out of (0, 1]", epsPrime)
	}
	// Probe with a valid ε to learn ℓ and C for (κ, ρ).
	probe, err := New(0.05, kappa, rho, n)
	if err != nil {
		return nil, err
	}
	if probe.L == 0 {
		return New(minf(epsPrime, 1), kappa, rho, n)
	}
	eps := epsPrime * (1 / float64(probe.C)) / (30 * float64(probe.L))
	return New(eps, kappa, rho, n)
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// RulingSetQ returns the separation parameter q = 2·δ_i for phase i
// (§2.2: a (2δ_i+1, (2/ρ)·δ_i)-ruling set).
func (p *Params) RulingSetQ(i int) int32 { return 2 * p.Delta[i] }

// SuperclusterDepth returns the BFS-forest depth of phase i: the
// domination radius C·q = (2/ρ̂)·δ_i of the ruling set.
func (p *Params) SuperclusterDepth(i int) int32 {
	return int32(p.C) * p.RulingSetQ(i)
}

// PredictedRounds is the paper's round bound O(β·n^ρ·ρ⁻¹) evaluated
// without the O-constant: β·n^ρ/ρ. Experiments report measured/predicted
// ratios against it.
func (p *Params) PredictedRounds() float64 {
	return p.Beta() * math.Pow(float64(p.N), p.Rho) / p.Rho
}

// PredictedSize is the paper's size bound O(β·n^{1+1/κ}) without the
// O-constant: β·n^{1+1/κ}.
func (p *Params) PredictedSize() float64 {
	return p.Beta() * math.Pow(float64(p.N), 1+1/float64(p.Kappa))
}

// BetaFormula is the closed-form additive term of eq. (1)/(18) for the
// rescaled parameters: ((30·ℓ)/(ρ̂·ε'))^ℓ. It equals Beta() by eq. (17)
// up to floating-point error; both are exposed so tests can pin the
// identity.
func (p *Params) BetaFormula() float64 {
	if p.L == 0 {
		return 1
	}
	eprime := p.EpsPrime()
	rhoHat := 1 / float64(p.C)
	return math.Pow(30*float64(p.L)/(rhoHat*eprime), float64(p.L))
}

// String summarizes the schedule.
func (p *Params) String() string {
	return fmt.Sprintf("eps=%g kappa=%d rho=%g n=%d l=%d i0=%d c=%d deg=%v delta=%v beta=%g",
		p.Eps, p.Kappa, p.Rho, p.N, p.L, p.I0, p.C, p.Deg, p.Delta, p.Beta())
}
