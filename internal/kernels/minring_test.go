package kernels

import (
	"fmt"
	"math"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// The native min-ring kernels (MinRingFast) reach the generic passes'
// bits by a different operation order. These tests hold them to the
// simulator's passes bit for bit, and hold graphs outside minPlusSafe
// to the fallback.

// sameSparse fails unless got and want hold the same indices and the
// same value bits.
func sameSparse(t *testing.T, what string, got, want *matrix.SparseVec) {
	t.Helper()
	if got.N != want.N || got.NNZ() != want.NNZ() {
		t.Fatalf("%s: N %d nnz %d, want N %d nnz %d", what, got.N, got.NNZ(), want.N, want.NNZ())
	}
	for k := range want.Idx {
		if got.Idx[k] != want.Idx[k] || math.Float32bits(got.Val[k]) != math.Float32bits(want.Val[k]) {
			t.Fatalf("%s: entry %d: got (%d, %g), want (%d, %g)", what, k, got.Idx[k], got.Val[k], want.Idx[k], want.Val[k])
		}
	}
}

// minRingFrontier is a sparse frontier at the given density carrying
// ring-shaped values: distances for SSSP (zero included), labels for
// BFS, with every seventh entry +Inf — a frontier entry the heap pass
// still emits rows for.
func minRingFrontier(n int, density float64, seed uint64, ring semiring.Semiring) *matrix.SparseVec {
	f := gen.Frontier(n, density, seed)
	for k, i := range f.Idx {
		switch {
		case k%7 == 6:
			f.Val[k] = inf32
		case ring.Kind == semiring.KindSSSP:
			f.Val[k] = float32(i%13) * 0.25
		default:
			f.Val[k] = float32(i)
		}
	}
	return f
}

// minRingPrev is SSSP's destination state: non-negative, some zero,
// some +Inf.
func minRingPrev(n int) matrix.Dense {
	prev := make(matrix.Dense, n)
	for i := range prev {
		prev[i] = float32(i%9) * 0.5
		if i%5 == 0 {
			prev[i] = inf32
		}
	}
	return prev
}

// withWeight returns a copy of m whose every 97th value is w.
func withWeight(m *matrix.COO, w float32) *matrix.COO {
	c := &matrix.COO{R: m.R, C: m.C, Row: m.Row, Col: m.Col, Val: append([]float32(nil), m.Val...)}
	for k := 0; k < len(c.Val); k += 97 {
		c.Val[k] = w
	}
	return c
}

// TestNativeOPMinRingsMatchRunOP runs the dense-accumulator push
// against the simulator's heap pass: BFS and SSSP frontiers from 0.01 %
// to 60 % density on 2×8 and 16×16 tile layouts, solo and as lanes of
// one call mixed with a custom ring (which keeps the heap pass), on a
// graph minPlusSafe admits and on graphs with a zero weight (admitted)
// and with a −0, a negative or an +Inf weight (SSSP falls back).
func TestNativeOPMinRingsMatchRunOP(t *testing.T) {
	base := gen.PowerLaw(4000, 16000, 0.6, gen.UniformWeight, 5)
	graphs := []struct {
		name string
		m    *matrix.COO
		fast bool // SSSP takes the min-ring push
	}{
		{"positive", base, true},
		{"zero", withWeight(base, 0), true},
		{"negzero", withWeight(base, float32(math.Copysign(0, -1))), false},
		{"negative", withWeight(base, -0.5), false},
		{"inf", withWeight(base, inf32), false},
	}
	custom := semiring.SSSP()
	custom.Kind = semiring.KindCustom // SSSP through the heap pass
	for _, g := range graphs {
		prev := minRingPrev(g.m.R)
		for _, geom := range []sim.Geometry{{Tiles: 2, PEsPerTile: 8}, {Tiles: 16, PEsPerTile: 16}} {
			part := NewOPPartition(g.m, geom.Tiles, BalanceNNZ)
			if got := part.MinRingFast(&custom); got {
				t.Fatalf("%s: a custom ring reported as a min ring", g.name)
			}
			if sssp := semiring.SSSP(); part.MinRingFast(&sssp) != g.fast {
				t.Fatalf("%s: MinRingFast(SSSP) = %v, want %v", g.name, !g.fast, g.fast)
			}
			c := sim.NewConfig(geom, sim.PC)
			for _, density := range []float64{0.0001, 0.001, 0.01, 0.1, 0.3, 0.6} {
				if g.name != "positive" && density != 0.01 {
					continue // the special weights need no sweep of their own
				}
				rings := []semiring.Semiring{semiring.BFS(), semiring.SSSP(), custom}
				fs := make([]*matrix.SparseVec, len(rings))
				ops := make([]Operand, len(rings))
				for l, ring := range rings {
					fs[l] = minRingFrontier(g.m.C, density, uint64(7+l), ring)
					ops[l] = opFor(ring, g.m, prev)
				}
				mixed := NativeOPMulti(part, fs, ops, geom.PEsPerTile)
				for l, ring := range rings {
					what := fmt.Sprintf("%s %dx%d %.2f%% lane %d (%s)", g.name, geom.Tiles, geom.PEsPerTile, 100*density, l, ring.Name)
					want, _ := RunOP(c, part, fs[l], ops[l])
					solo := NativeOPMulti(part, fs[l:l+1], ops[l:l+1], geom.PEsPerTile)[0]
					sameSparse(t, what+" solo", solo, want)
					sameSparse(t, what+" mixed", mixed[l], want)
				}
			}
		}
	}
}

// TestNativeIPMinRingsMatchGenericPass runs the branch-free pull
// against the simulator's generic pass at 1 %, 50 % and 100 % frontier
// density, vblocked and not, as solo lanes and as two lanes of one
// call; the SSSP frontier carries a zero distance and the destination
// state zeros and +Inf.
func TestNativeIPMinRingsMatchGenericPass(t *testing.T) {
	m := gen.PowerLaw(3000, 30000, 0.6, gen.UniformWeight, 9)
	prev := minRingPrev(m.R)
	c := cfg(2, 8, sim.SC)
	for _, vblock := range []int{c.SPMWordsPerTile(), 64, 0} {
		part := NewIPPartition(m, c.Geometry.TotalPEs(), vblock, BalanceNNZ)
		part.Materialize()
		if !part.minPlusSafe {
			t.Fatal("a graph of weights in (0, 1] failed minPlusSafe")
		}
		for _, density := range []float64{0.01, 0.5, 1} {
			rings := []semiring.Semiring{semiring.BFS(), semiring.SSSP()}
			xs := make([]matrix.Dense, len(rings))
			ops := make([]Operand, len(rings))
			for l, ring := range rings {
				xs[l] = minRingFrontier(m.C, density, uint64(3+l), ring).ToDense(ring.Identity)
				ops[l] = opFor(ring, m, prev)
				ops[l].Scratch = new(Scratch)
			}
			both := NativeIPMulti(part, xs, ops)
			for l, ring := range rings {
				what := fmt.Sprintf("vblock %d %.0f%% %s", vblock, 100*density, ring.Name)
				want, _ := runIP(c, part, xs[l], ops[l])
				sameBits(t, what+" in a two-lane call", both[l], want)
				solo := NativeIPMulti(part, xs[l:l+1], []Operand{opFor(ring, m, prev)})[0]
				sameBits(t, what+" solo", solo, want)
			}
		}
	}
}
