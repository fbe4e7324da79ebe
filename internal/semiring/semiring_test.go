package semiring

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpMVRing(t *testing.T) {
	r := SpMV()
	if got := r.MatOp(2, 3, Ctx{}); got != 6 {
		t.Fatalf("MatOp(2,3) = %g", got)
	}
	if got := r.Reduce(2, 3); got != 5 {
		t.Fatalf("Reduce(2,3) = %g", got)
	}
	if r.Identity != 0 || r.VecOp != nil || r.DenseFrontier || r.OnceOnly {
		t.Fatal("SpMV ring flags wrong")
	}
}

func TestBFSRing(t *testing.T) {
	r := BFS()
	if !math.IsInf(float64(r.Identity), 1) {
		t.Fatal("BFS identity must be +Inf")
	}
	// Active source proposes its own id.
	if got := r.MatOp(1, 5.0, Ctx{Src: 7}); got != 7 {
		t.Fatalf("active source proposed %g, want 7", got)
	}
	// Inactive source (identity value) proposes nothing.
	if got := r.MatOp(1, r.Identity, Ctx{Src: 7}); !math.IsInf(float64(got), 1) {
		t.Fatalf("inactive source proposed %g", got)
	}
	if got := r.Reduce(3, 9); got != 3 {
		t.Fatalf("Reduce = %g, want min", got)
	}
	if !r.OnceOnly {
		t.Fatal("BFS must be OnceOnly")
	}
	if !r.Improving(2, 5) || r.Improving(5, 2) || r.Improving(5, 5) {
		t.Fatal("BFS Improving must be strict less-than")
	}
}

func TestSSSPRing(t *testing.T) {
	r := SSSP()
	// Relaxation clamps against the destination's current distance.
	if got := r.MatOp(2, 3, Ctx{DstVal: 10}); got != 5 {
		t.Fatalf("relax = %g, want 5", got)
	}
	if got := r.MatOp(2, 3, Ctx{DstVal: 4}); got != 4 {
		t.Fatalf("relax = %g, want clamp at 4", got)
	}
	if !r.NeedsDstVal {
		t.Fatal("SSSP must read DstVal")
	}
	inf := r.Identity
	if got := r.MatOp(2, inf, Ctx{DstVal: inf}); !math.IsInf(float64(got), 1) {
		t.Fatalf("inactive relax = %g, want +Inf", got)
	}
}

func TestPRRing(t *testing.T) {
	r := PR()
	if got := r.MatOp(1, 0.6, Ctx{SrcDeg: 3}); math.Abs(float64(got-0.2)) > 1e-6 {
		t.Fatalf("MatOp = %g, want 0.2", got)
	}
	if got := r.MatOp(1, 0.6, Ctx{SrcDeg: 0}); got != 0 {
		t.Fatalf("dangling vertex contributed %g", got)
	}
	if got := r.VecOp(0.5, 0, Ctx{Alpha: 0.15}); math.Abs(float64(got)-(0.15+0.85*0.5)) > 1e-6 {
		t.Fatalf("VecOp = %g", got)
	}
	if !r.DenseFrontier || !r.NeedsSrcDeg {
		t.Fatal("PR flags wrong")
	}
}

func TestCFRing(t *testing.T) {
	r := CF()
	ctx := Ctx{DstVal: 0.5, Lambda: 0.1}
	// (Sp − Vs·Vd)·Vs − λ·Vd = (2 − 0.3·0.5)·0.3 − 0.1·0.5
	want := (2-0.3*0.5)*0.3 - 0.1*0.5
	if got := r.MatOp(2, 0.3, ctx); math.Abs(float64(got)-want) > 1e-6 {
		t.Fatalf("MatOp = %g, want %g", got, want)
	}
	// VecOp: β·V' + V_dst
	if got := r.VecOp(0.4, 0.5, Ctx{Beta: 0.1}); math.Abs(float64(got)-(0.1*0.4+0.5)) > 1e-6 {
		t.Fatalf("VecOp = %g", got)
	}
	if !r.DenseFrontier || !r.NeedsDstVal {
		t.Fatal("CF flags wrong")
	}
}

// Properties every ring must satisfy for the kernels to be exchangeable.
func TestRingAlgebraicProperties(t *testing.T) {
	// The draws come from a fixed seed, logged so a failure replays.
	const seed = 20261018
	t.Logf("testing/quick seed %d", seed)
	rings := []Semiring{SpMV(), BFS(), SSSP(), PR(), CF()}
	for _, r := range rings {
		if r.MatOp == nil || r.Reduce == nil || r.Improving == nil {
			t.Fatalf("%s: missing operator", r.Name)
		}
		if r.MatOpCost <= 0 || r.ReduceCost <= 0 {
			t.Fatalf("%s: non-positive op costs", r.Name)
		}
		// Reduce must be commutative and associative over arbitrary
		// inputs (required for any partitioning to give one answer).
		f := func(a, b, c float32) bool {
			ab := r.Reduce(a, b)
			ba := r.Reduce(b, a)
			if !eq(ab, ba) {
				return false
			}
			l := r.Reduce(r.Reduce(a, b), c)
			rr := r.Reduce(a, r.Reduce(b, c))
			return sumsAgree(l, rr, a, b, c)
		}
		cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(seed))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%s: Reduce not commutative/associative: %v", r.Name, err)
		}
	}
}

// sumsAgree reports whether l and r, a Reduce over a, b and c in two
// orders, differ by no more than float32 rounding allows. Each rounded
// float32 add is the exact sum times (1+δ), |δ| ≤ u = 2⁻²⁴, so a
// k-term sum in any order is within γ_{k-1}·Σ|xᵢ| of the exact sum,
// γ_n = n·u/(1−n·u) (Higham, Accuracy and Stability of Numerical
// Algorithms, §4.2), and two orders are within 2·γ_{k-1}·Σ|xᵢ| of each
// other. For k = 3 that is 4u/(1−2u)·Σ|xᵢ|, under k·ε·Σ|xᵢ| = 6u·Σ|xᵢ|
// with ε = 2u = 2⁻²³, the float32 machine epsilon. Min rings are
// exact, so they meet the bound with equality. The model has no
// overflow: a partial sum past the float32 range may round to ±Inf in
// one order and not the other, so an infinite result only has to come
// from such a partial sum.
func sumsAgree(l, r, a, b, c float32) bool {
	if eq(l, r) {
		return true
	}
	x, y, z := float64(a), float64(b), float64(c)
	if math.IsInf(float64(l), 0) || math.IsInf(float64(r), 0) {
		for _, s := range []float64{x + y, y + z, x + y + z} {
			if math.Abs(s) > math.MaxFloat32 {
				return true
			}
		}
		return false
	}
	const k, eps = 3, 0x1p-23
	return math.Abs(float64(l)-float64(r)) <= k*eps*(math.Abs(x)+math.Abs(y)+math.Abs(z))
}

// Min-plus rings must treat Identity as a true reduce identity.
func TestIdentityIsNeutral(t *testing.T) {
	for _, r := range []Semiring{BFS(), SSSP()} {
		f := func(a float32) bool {
			return eq(r.Reduce(a, r.Identity), a) && eq(r.Reduce(r.Identity, a), a)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: Identity not neutral: %v", r.Name, err)
		}
	}
	for _, r := range []Semiring{SpMV(), PR(), CF()} {
		f := func(a float32) bool {
			return eq(r.Reduce(a, 0), a)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: 0 not neutral for sum: %v", r.Name, err)
		}
	}
}

func eq(a, b float32) bool {
	if math.IsNaN(float64(a)) && math.IsNaN(float64(b)) {
		return true
	}
	if math.IsInf(float64(a), 1) && math.IsInf(float64(b), 1) {
		return true
	}
	return a == b
}
