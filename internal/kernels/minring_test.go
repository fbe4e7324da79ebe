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

// sameMinRingPull fails unless the native pull of BFS and SSSP on xs
// (one frontier per ring, in that order) reaches the simulator's
// generic pass bit for bit, both as two lanes of one call and solo.
func sameMinRingPull(t *testing.T, what string, c sim.Config, part *IPPartition, m *matrix.COO, xs []matrix.Dense, prev matrix.Dense) {
	t.Helper()
	rings := []semiring.Semiring{semiring.BFS(), semiring.SSSP()}
	ops := make([]Operand, len(rings))
	for l, ring := range rings {
		ops[l] = opFor(ring, m, prev)
		ops[l].Scratch = new(Scratch)
	}
	both := NativeIPMulti(part, xs, ops)
	for l, ring := range rings {
		want, _ := runIP(c, part, xs[l], ops[l])
		sameBits(t, what+" "+ring.Name+" in a two-lane call", both[l], want)
		solo := NativeIPMulti(part, xs[l:l+1], []Operand{opFor(ring, m, prev)})[0]
		sameBits(t, what+" "+ring.Name+" solo", solo, want)
	}
}

// coo builds a matrix from edges, each weighted 0.25·(1 + (row+col)%4).
func coo(t *testing.T, n int, edges [][2]int32) *matrix.COO {
	t.Helper()
	elems := make([]matrix.Coord, len(edges))
	for k, e := range edges {
		elems[k] = matrix.Coord{Row: e[0], Col: e[1], Val: 0.25 * float32(1+(e[0]+e[1])%4)}
	}
	m, err := matrix.NewCOO(n, n, elems)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestNativeIPMinRingsMatchGenericPass runs the flat pull against the
// simulator's generic pass, as solo lanes and as two lanes of one
// call: at 0 % (every source inactive), 1 %, 50 % and 100 % frontier
// density, vblocked and not, with a zero distance in the SSSP frontier
// and zeros and +Inf in the destination state; on rows whose in-edges
// span every vblock; on a partition with PEs that own no rows; and on
// SSSP rows whose only finite sum lies above their destination value.
func TestNativeIPMinRingsMatchGenericPass(t *testing.T) {
	m := gen.PowerLaw(3000, 30000, 0.6, gen.UniformWeight, 9)
	prev := minRingPrev(m.R)
	c := cfg(2, 8, sim.SC)
	rings := []semiring.Semiring{semiring.BFS(), semiring.SSSP()}
	frontiers := func(n int, density float64) []matrix.Dense {
		xs := make([]matrix.Dense, len(rings))
		for l, ring := range rings {
			xs[l] = minRingFrontier(n, density, uint64(3+l), ring).ToDense(ring.Identity)
		}
		return xs
	}
	for _, vblock := range []int{c.SPMWordsPerTile(), 64, 0} {
		part := NewIPPartition(m, c.Geometry.TotalPEs(), vblock, BalanceNNZ)
		part.Materialize()
		if !part.minPlusSafe {
			t.Fatal("a graph of weights in (0, 1] failed minPlusSafe")
		}
		for _, density := range []float64{0, 0.01, 0.5, 1} {
			what := fmt.Sprintf("vblock %d %.0f%%", vblock, 100*density)
			sameMinRingPull(t, what, c, part, m, frontiers(m.C, density), prev)
		}
	}

	t.Run("rows spanning every vblock", func(t *testing.T) {
		// Rows below 40 take one in-edge from every 64-column vblock,
		// so each of their rows is split into one run per vblock.
		const n, width = 512, 64
		var edges [][2]int32
		for r := int32(0); r < n; r++ {
			edges = append(edges, [2]int32{r, (r + 1) % n})
			if r < 40 {
				for vb := int32(0); vb < n/width; vb++ {
					edges = append(edges, [2]int32{r, vb*width + (r*7+3)%width})
				}
			}
		}
		sm := coo(t, n, edges)
		part := NewIPPartition(sm, c.Geometry.TotalPEs(), width, BalanceNNZ)
		part.Materialize()
		spans := 0 // vblock segments holding row 0, PE 0's first row
		for _, seg := range part.Segs[0] {
			if part.Row[seg.Lo] == 0 {
				spans++
			}
		}
		if spans != part.NumVBlocks {
			t.Fatalf("row 0 spans %d of %d vblocks", spans, part.NumVBlocks)
		}
		for _, density := range []float64{0.05, 0.5, 1} {
			sameMinRingPull(t, fmt.Sprintf("%.0f%%", 100*density), c, part, sm, frontiers(n, density), minRingPrev(n))
		}
	})

	t.Run("PEs without rows", func(t *testing.T) {
		// A hub row holding most of the edges leaves the nnz-balanced
		// cut with empty PEs.
		const n = 12
		var edges [][2]int32
		for col := int32(0); col < n; col++ {
			edges = append(edges, [2]int32{3, col})
		}
		edges = append(edges, [2]int32{0, 5}, [2]int32{7, 2}, [2]int32{11, 3})
		sm := coo(t, n, edges)
		part := NewIPPartition(sm, c.Geometry.TotalPEs(), 4, BalanceNNZ)
		part.Materialize()
		empty := 0
		for pe := 0; pe < part.NumPEs; pe++ {
			if part.RowBounds[pe] == part.RowBounds[pe+1] {
				empty++
			}
		}
		if empty == 0 {
			t.Fatal("every PE owns rows")
		}
		for _, density := range []float64{0, 0.5, 1} {
			sameMinRingPull(t, fmt.Sprintf("%.0f%%", 100*density), c, part, sm, frontiers(n, density), minRingPrev(n))
		}
	})

	t.Run("SSSP sums above the destination", func(t *testing.T) {
		// One active source at distance 100: every row it reaches has a
		// single finite sum, above its destination value of 0.5 (or
		// below an +Inf one); rows it does not reach stay +Inf.
		part := NewIPPartition(m, c.Geometry.TotalPEs(), 64, BalanceNNZ)
		part.Materialize()
		hub := int32(0)
		deg := m.OutDegrees()
		for v, d := range deg {
			if d > deg[hub] {
				hub = int32(v)
			}
		}
		xs := frontiers(m.C, 0)
		xs[1][hub] = 100
		low := make(matrix.Dense, m.R)
		for i := range low {
			low[i] = 0.5
			if i%5 == 0 {
				low[i] = inf32
			}
		}
		sameMinRingPull(t, "one source", c, part, m, xs, low)
		op := opFor(semiring.SSSP(), m, low)
		got := NativeIPMulti(part, xs[1:], []Operand{op})[0]
		held := 0
		for r, v := range got {
			if v == 0.5 {
				held++
			} else if v != inf32 && v < 100 {
				t.Fatalf("row %d: %g, below the only finite sum", r, v)
			}
		}
		if held == 0 {
			t.Fatal("no row kept its destination value")
		}
	})
}

// TestNativeMinMergesMatchGeneric holds the specialised BFS/SSSP dense
// and scatter merges to mergeValue and Improving — the generic body the
// other rings and the simulator use — on contributions with NaN, ±Inf,
// ±0 and ties, against values that include BFS rows already set: the
// merged values must be bit-equal and the frontiers identical.
func TestNativeMinMergesMatchGeneric(t *testing.T) {
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{nan, inf32, -inf32, 0, negZero, 1, 2.5, 3}
	const n = 4096
	contrib := make(matrix.Dense, n)
	start := make(matrix.Dense, n)
	for i := range contrib {
		contrib[i] = specials[i%len(specials)]
		start[i] = specials[(i/len(specials))%len(specials)]
		if i%11 == 0 {
			start[i] = contrib[i] // a tie
		}
	}
	// Every tenth contribution index, as the sparse push output.
	sparse := &matrix.SparseVec{N: n}
	for i := 0; i < n; i += 10 {
		sparse.Idx = append(sparse.Idx, int32(i))
		sparse.Val = append(sparse.Val, contrib[i])
	}
	for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
		op := Operand{Ring: ring}
		if !minMerge(&op.Ring) {
			t.Fatalf("%s: not merged as a plain min", ring.Name)
		}
		generic := func(idx []int32, vals []float32) (matrix.Dense, *matrix.SparseVec) {
			out := start.Clone()
			f := &matrix.SparseVec{N: n}
			for k, i := range idx {
				old := out[i]
				nv := mergeValue(&op, i, vals[k], old)
				out[i] = nv
				if ring.Improving(nv, old) {
					f.Idx = append(f.Idx, i)
					f.Val = append(f.Val, nv)
				}
			}
			return out, f
		}
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		wantDense, wantDenseF := generic(all, contrib)
		gotDense, gotDenseF := NativeMergeDense(contrib, start.Clone(), op)
		sameBits(t, ring.Name+" dense merge values", gotDense, wantDense)
		sameSparse(t, ring.Name+" dense merge frontier", gotDenseF, wantDenseF)

		wantScatter, wantScatterF := generic(sparse.Idx, sparse.Val)
		gotScatter, gotScatterF := NativeScatterMerge(sparse, start.Clone(), op)
		sameBits(t, ring.Name+" scatter merge values", gotScatter, wantScatter)
		sameSparse(t, ring.Name+" scatter merge frontier", gotScatterF, wantScatterF)
		if wantDenseF.NNZ() == 0 || wantScatterF.NNZ() == 0 {
			t.Fatalf("%s: no contribution improved a value", ring.Name)
		}
	}
	for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
		ring.VecOp = func(v, _ float32, _ semiring.Ctx) float32 { return v }
		if minMerge(&ring) {
			t.Fatalf("%s with a Vector_Op merged as a plain min", ring.Name)
		}
	}
	for _, ring := range []semiring.Semiring{semiring.SpMV(), semiring.PR(), semiring.CF()} {
		if minMerge(&ring) {
			t.Fatalf("%s merged as a plain min", ring.Name)
		}
	}
}
