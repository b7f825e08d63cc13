package params

import (
	"math"
	"testing"
)

func mustNew(t *testing.T, eps float64, kappa int, rho float64, n int) *Params {
	t.Helper()
	p, err := New(eps, kappa, rho, n)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidation(t *testing.T) {
	cases := []struct {
		eps   float64
		kappa int
		rho   float64
		n     int
		ok    bool
	}{
		{0.1, 4, 0.3, 100, true},
		{0.0, 4, 0.3, 100, false},  // eps <= 0
		{1.5, 4, 0.3, 100, false},  // eps > 1
		{0.1, 1, 0.3, 100, false},  // kappa < 2
		{0.1, 4, 0.2, 100, false},  // rho < 1/kappa
		{0.1, 4, 0.5, 100, false},  // rho >= 1/2
		{0.1, 4, 0.25, 100, true},  // rho == 1/kappa boundary
		{0.1, 4, 0.3, 0, false},    // n < 1
		{0.1, 2, 0.499, 10, false}, // kappa=2 leaves [1/2, 1/2) empty
		{0.1, 3, 0.34, 100, true},  // minimal practical kappa
		{1.0, 16, 0.0625, 5, true}, // rho == 1/kappa, small n
		{math.NaN(), 4, 0.3, 100, false},
		{0.1, 4, math.NaN(), 100, false},
	}
	for _, c := range cases {
		_, err := New(c.eps, c.kappa, c.rho, c.n)
		if (err == nil) != c.ok {
			t.Errorf("New(%v,%d,%v,%d): err=%v, want ok=%v", c.eps, c.kappa, c.rho, c.n, err, c.ok)
		}
	}
	if _, err := FromTarget(math.NaN(), 4, 0.3, 100); err == nil {
		t.Error("FromTarget accepted a NaN target")
	}
}

// ℓ = ⌊log2(κρ)⌋ + ⌈(κ+1)/(κρ)⌉ − 1 (paper §2.1).
func TestPhaseCount(t *testing.T) {
	cases := []struct {
		kappa  int
		rho    float64
		wantL  int
		wantI0 int
	}{
		// κρ = 1.8: i0 = 0, ⌈5/1.8⌉ = 3 → ℓ = 2.
		{4, 0.45, 2, 0},
		// κρ = 1.2: i0 = 0, ⌈5/1.2⌉ = 5 → ℓ = 4.
		{4, 0.3, 4, 0},
		// κρ = 2.4: i0 = 1, ⌈9/2.4⌉ = 4 → ℓ = 4.
		{8, 0.3, 4, 1},
	}
	for _, c := range cases {
		p := mustNew(t, 0.04, c.kappa, c.rho, 1000)
		if p.L != c.wantL || p.I0 != c.wantI0 {
			t.Errorf("kappa=%d rho=%v: L=%d I0=%d, want %d %d", c.kappa, c.rho, p.L, p.I0, c.wantL, c.wantI0)
		}
	}
	// κρ slightly above 1 keeps i0 = 0 and yields a valid plan.
	p := mustNew(t, 0.04, 3, 0.34, 1000)
	if p.I0 != 0 || p.L < 1 {
		t.Errorf("boundary: I0=%d L=%d", p.I0, p.L)
	}
}

// deg_i = n^{2^i/κ} in the exponential stage, n^ρ afterwards (§2.1), and
// deg_i <= n^ρ throughout.
func TestDegreeSchedule(t *testing.T) {
	n := 10000
	p := mustNew(t, 0.04, 8, 0.3, n)
	nRho := math.Pow(float64(n), p.Rho)
	for i, d := range p.Deg {
		if i <= p.I0 {
			want := math.Pow(float64(n), math.Exp2(float64(i))/float64(p.Kappa))
			if math.Abs(float64(d)-math.Ceil(want-1e-9)) > 0.5 {
				t.Errorf("deg[%d]=%d, want ceil(%v)", i, d, want)
			}
			if float64(d) > nRho+1 {
				t.Errorf("deg[%d]=%d exceeds n^rho=%v in exponential stage", i, d, nRho)
			}
		} else if float64(d) < nRho-1 || float64(d) > nRho+1 {
			t.Errorf("deg[%d]=%d, want ~n^rho=%v", i, d, nRho)
		}
	}
}

// R_i and δ_i satisfy the paper's recurrences and bounds.
func TestRadiusRecurrence(t *testing.T) {
	p := mustNew(t, 0.05, 4, 0.45, 1000)
	if p.R[0] != 0 {
		t.Fatalf("R[0]=%d", p.R[0])
	}
	for i := 0; i <= p.L; i++ {
		// δ_i = ⌈ε^{-i}⌉ + 2R_i (eq. 3, integerized).
		want := int32(math.Ceil(invPow(p.Eps, i))) + 2*p.R[i]
		if p.Delta[i] != want {
			t.Errorf("Delta[%d]=%d, want %d", i, p.Delta[i], want)
		}
		// Monotone growth.
		if i > 0 && p.Delta[i] <= p.Delta[i-1] {
			t.Errorf("Delta not increasing at %d: %v", i, p.Delta)
		}
	}
}

// Eq. (6): with ρ̂ >= 10ε, R_i <= (4/ρ̂)·ε^{-(i-1)} — the paper's bound
// with a +1-per-level slack for the integer ceilings.
func TestRadiusUpperBound(t *testing.T) {
	for _, cfg := range []struct {
		eps   float64
		kappa int
		rho   float64
	}{
		{0.02, 4, 0.45}, {0.01, 4, 0.3}, {0.03, 8, 0.34},
	} {
		p := mustNew(t, cfg.eps, cfg.kappa, cfg.rho, 100000)
		if !p.GuaranteeOK() {
			t.Fatalf("cfg %+v expected to satisfy guarantee preconditions", cfg)
		}
		rhoHat := 1 / float64(p.C)
		for i := 1; i <= p.L; i++ {
			bound := 4/rhoHat*invPow(p.Eps, i-1) + float64(i+1) // slack for ceilings
			if float64(p.R[i]) > bound {
				t.Errorf("cfg %+v: R[%d]=%d exceeds (4/rho_hat)eps^-(i-1)=%v",
					cfg, i, p.R[i], bound)
			}
		}
		// Eq. (8): δ_i = O(ε^{-i}); with the guarantee preconditions the
		// constant is at most 2 (+ceiling slack).
		for i := 0; i <= p.L; i++ {
			if float64(p.Delta[i]) > 2*invPow(p.Eps, i)+float64(2*i+2) {
				t.Errorf("cfg %+v: Delta[%d]=%d exceeds 2eps^-i", cfg, i, p.Delta[i])
			}
		}
	}
}

func TestGuaranteeOK(t *testing.T) {
	good := mustNew(t, 0.02, 4, 0.45, 1000) // C=3, rho_hat=1/3 >= 0.2, eps<=0.1
	if !good.GuaranteeOK() {
		t.Error("expected guarantee to hold")
	}
	bad := mustNew(t, 0.3, 4, 0.45, 1000) // eps > 1/10
	if bad.GuaranteeOK() {
		t.Error("eps=0.3 must not satisfy the guarantee preconditions")
	}
	bad2 := mustNew(t, 0.09, 4, 0.25, 1000) // C=4, rho_hat=0.25 < 0.9
	if bad2.GuaranteeOK() {
		t.Error("rho_hat < 10eps must not satisfy the guarantee preconditions")
	}
}

// Guarantee is Cor. 2.18's (1+ε', ⌈β⌉) pair: α = 1 + 30·ε·ℓ/ρ̂ and β =
// ε^{-ℓ} rounded up.
func TestGuarantee(t *testing.T) {
	p := mustNew(t, 0.5, 4, 0.45, 1000) // ℓ=2, C=3: ε' = 30·0.5·2·3, β = 4
	alpha, beta := p.Guarantee()
	if p.L != 2 || p.C != 3 {
		t.Fatalf("schedule changed: %v", p)
	}
	if math.Abs(alpha-(1+30*0.5*2*3)) > 1e-9 || beta != 4 {
		t.Errorf("Guarantee() = (%v, %d), want (%v, 4)", alpha, beta, 1+30*0.5*2*3.0)
	}
}

// Eq. (17): β = ε^{-ℓ} equals the closed form ((30ℓ)/(ρ̂ε'))^ℓ after
// rescaling.
func TestBetaIdentity(t *testing.T) {
	for _, cfg := range []struct {
		eps   float64
		kappa int
		rho   float64
	}{
		{0.02, 4, 0.45}, {0.05, 4, 0.3}, {0.01, 8, 0.26},
	} {
		p := mustNew(t, cfg.eps, cfg.kappa, cfg.rho, 1000)
		b1, b2 := p.Beta(), p.BetaFormula()
		if math.Abs(b1-b2)/b1 > 1e-9 {
			t.Errorf("cfg %+v: Beta()=%v BetaFormula()=%v", cfg, b1, b2)
		}
	}
}

func TestFromTargetInvertsRescaling(t *testing.T) {
	for _, target := range []float64{0.25, 0.5, 1.0} {
		p, err := FromTarget(target, 4, 0.45, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if p.L == 0 {
			continue
		}
		if math.Abs(p.EpsPrime()-target)/target > 1e-9 {
			t.Errorf("target %v: EpsPrime=%v", target, p.EpsPrime())
		}
	}
	if _, err := FromTarget(0, 4, 0.45, 100); err == nil {
		t.Error("target 0 accepted")
	}
}

func TestRulingSetParameters(t *testing.T) {
	p := mustNew(t, 0.05, 4, 0.45, 1000)
	for i := 0; i <= p.L; i++ {
		if p.RulingSetQ(i) != 2*p.Delta[i] {
			t.Errorf("q[%d]=%d, want 2*delta=%d", i, p.RulingSetQ(i), 2*p.Delta[i])
		}
		if p.SuperclusterDepth(i) != int32(p.C)*2*p.Delta[i] {
			t.Errorf("depth[%d]=%d, want c*q=%d", i, p.SuperclusterDepth(i), int32(p.C)*2*p.Delta[i])
		}
	}
}

func TestPredictedBoundsPositive(t *testing.T) {
	p := mustNew(t, 0.05, 4, 0.45, 1000)
	if p.PredictedRounds() <= 0 || p.PredictedSize() <= 0 {
		t.Error("predicted bounds must be positive")
	}
	if p.BetaInt() < 1 {
		t.Errorf("BetaInt=%d", p.BetaInt())
	}
}

func TestCeilPowExactness(t *testing.T) {
	// n^(1/2) for perfect squares must not round up.
	if got := ceilPow(10000, 0.5); got != 100 {
		t.Errorf("ceilPow(10000, 0.5)=%d, want 100", got)
	}
	if got := ceilPow(1024, 0.5); got != 32 {
		t.Errorf("ceilPow(1024, 0.5)=%d, want 32", got)
	}
	// Non-exact powers round up.
	if got := ceilPow(10, 0.5); got != 4 {
		t.Errorf("ceilPow(10, 0.5)=%d, want 4", got)
	}
}

func TestNewWithEstimate(t *testing.T) {
	exact := mustNew(t, 0.1, 4, 0.45, 100)
	over, err := NewWithEstimate(0.1, 4, 0.45, 100, 10000) // ñ = n^2
	if err != nil {
		t.Fatal(err)
	}
	if over.N != 100 || over.NEstimate != 10000 {
		t.Fatalf("fields: N=%d NEstimate=%d", over.N, over.NEstimate)
	}
	// Over-estimation only raises thresholds.
	for i := range exact.Deg {
		if over.Deg[i] < exact.Deg[i] {
			t.Errorf("deg[%d] shrank under over-estimation: %d < %d", i, over.Deg[i], exact.Deg[i])
		}
	}
	// The distance schedule is estimate-independent.
	for i := range exact.Delta {
		if over.Delta[i] != exact.Delta[i] {
			t.Errorf("delta[%d] depends on the estimate", i)
		}
	}
	// Under-estimates rejected.
	if _, err := NewWithEstimate(0.1, 4, 0.45, 100, 99); err == nil {
		t.Error("estimate below n accepted")
	}
}

func TestStringIsInformative(t *testing.T) {
	p := mustNew(t, 0.05, 4, 0.45, 1000)
	s := p.String()
	if len(s) == 0 {
		t.Error("empty String()")
	}
}
