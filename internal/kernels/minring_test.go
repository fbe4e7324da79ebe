package kernels

import (
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
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

// TestNativeOPMinRingsMatchRunOP holds NativeOPMulti, the reference
// the fused push is checked against, to the simulator's RunOP for the
// min rings: BFS and SSSP frontiers from 0.01 % to 60 % density on 2×8
// and 16×16 tile layouts, solo and as lanes of one call mixed with a
// custom ring, on a graph minPlusSafe admits and on graphs with a zero
// weight (admitted) and with a −0, a negative or an +Inf weight (SSSP
// falls back), where MinRingFast must say which.
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
// merge to mergeValue and Improving — the generic body the other rings
// and the simulator use — on contributions with NaN, ±Inf,
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
	for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
		op := Operand{Ring: ring}
		if !minMerge(&op.Ring) {
			t.Fatalf("%s: not merged as a plain min", ring.Name)
		}
		want := start.Clone()
		wantF := &matrix.SparseVec{N: n}
		for i, c := range contrib {
			old := want[i]
			nv := mergeValue(&op, int32(i), c, old)
			want[i] = nv
			if ring.Improving(nv, old) {
				wantF.Idx = append(wantF.Idx, int32(i))
				wantF.Val = append(wantF.Val, nv)
			}
		}
		got, gotF := NativeMergeDense(contrib, start.Clone(), op)
		sameBits(t, ring.Name+" dense merge values", got, want)
		sameSparse(t, ring.Name+" dense merge frontier", gotF, wantF)
		if wantF.NNZ() == 0 {
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

// hubGraph is a BFS/SSSP input built to make the push's writers
// collide: from src, n−1, the first step reaches rows 1..4200, and the
// second pushes all 4200 of them at once into hub row 0 (4200 in-edges)
// and the first 512 into one 256-row block. Frontier rows point at each
// other (j → j+1, so an SSSP distance drops mid-push) and at themselves,
// some weights are zero, and n is not a multiple of 32.
func hubGraph() (*matrix.COO, int32) {
	const n, fan, blockCols, block = 4581, 4200, 512, 256
	src := int32(n - 1)
	var elems []matrix.Coord
	add := func(row, col int32, w float32) {
		elems = append(elems, matrix.Coord{Row: row, Col: col, Val: w})
	}
	for j := int32(1); j <= fan; j++ {
		add(j, src, float32(j%5)*0.25)
		add(0, j, float32(j%3)*0.5)
		if j%7 == 0 {
			add(j, j, 0)
		}
		if j < fan {
			add(j+1, j, float32(j%2)*0.25)
		}
		if j <= blockCols {
			for b := int32(0); b < block; b++ {
				add(fan+1+b, j, 0.25*float32(1+(j+b)%4))
			}
		}
	}
	add(fan+block+1, 0, 1) // the hub leads on
	return matrix.MustCOO(n, n, elems), src
}

// TestNativePushMergeMatchesOPScatterMerge holds the fused push-merge
// to the pair it replaces — NativeOPMulti's heap pass, then
// NativeScatterMerge, which share no code with the push — iteration by
// iteration over whole BFS and SSSP traversals, through the lane's own
// bitmap from the first iteration to an empty frontier: values and next
// frontier bit-equal every time. The heap-pass trajectory is computed
// once per graph and ring; the fused traversal runs at GOMAXPROCS 1, 2
// and 8, several times each, since the CAS-min interleaving differs
// run to run: on a power-law graph (with a zero weight), and on
// hubGraph, where thousands of frontier columns race for the same rows
// and BFS meets rows set in earlier iterations.
func TestNativePushMergeMatchesOPScatterMerge(t *testing.T) {
	hub, hubSrc := hubGraph()
	pl := gen.PowerLaw(3000, 30000, 0.6, gen.UniformWeight, 31)
	deg := pl.OutDegrees()
	plSrc := int32(0)
	for v, d := range deg {
		if d > deg[plSrc] {
			plSrc = int32(v)
		}
	}
	graphs := []struct {
		name string
		m    *matrix.COO
		src  int32
		reps int
	}{
		{"powerlaw", pl, plSrc, 2},
		{"powerlaw-zero", withWeight(pl, 0), plSrc, 2},
		{"hub", hub, hubSrc, 10},
	}
	procs := goruntime.GOMAXPROCS(0)
	defer goruntime.GOMAXPROCS(procs)
	for _, g := range graphs {
		_, part := NewPartitions(g.m, 4, 4, 0, BalanceNNZ)
		for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
			want := heapTrajectory(t, g.name+" "+ring.Name, part, ring, g.src)
			for _, p := range []int{1, 2, 8} {
				goruntime.GOMAXPROCS(p)
				for rep := 0; rep < g.reps; rep++ {
					what := fmt.Sprintf("%s %s GOMAXPROCS=%d rep %d", g.name, ring.Name, p, rep)
					fusedTraversal(t, what, part, ring, g.src, want)
				}
			}
		}
	}

	// Lanes the fused pass must refuse, touching nothing.
	_, part := NewPartitions(pl, 4, 4, 0, BalanceNNZ)
	_, negative := NewPartitions(withWeight(pl, -0.5), 4, 4, 0, BalanceNNZ)
	custom := semiring.BFS()
	custom.Kind = semiring.KindCustom
	vecOp := semiring.BFS()
	vecOp.VecOp = func(v, _ float32, _ semiring.Ctx) float32 { return v }
	f := &matrix.SparseVec{N: pl.C, Idx: []int32{plSrc}, Val: []float32{0}}
	vals := make(matrix.Dense, pl.R)
	for _, c := range []struct {
		name string
		part *OPPartition
		op   Operand
	}{
		{"custom ring", part, Operand{Ring: custom}},
		{"BFS with a Vector_Op", part, Operand{Ring: vecOp}},
		{"SSSP with V_dst apart from vals", part, Operand{Ring: semiring.SSSP(), Prev: vals.Clone()}},
		{"SSSP outside minPlusSafe", negative, Operand{Ring: semiring.SSSP(), Prev: vals}},
	} {
		if _, _, ok := NativePushMerge(c.part, f, vals, c.op); ok {
			t.Fatalf("%s: taken by the fused pass", c.name)
		}
	}
	if slices.ContainsFunc(vals, func(v float32) bool { return v != 0 }) {
		t.Fatal("a refused lane's values changed")
	}
}

// traversalStart is a traversal of ring from src before its first
// iteration: the values, src alone off the identity, and the frontier.
func traversalStart(part *OPPartition, ring semiring.Semiring, src int32) (matrix.Dense, *matrix.SparseVec) {
	vals := make(matrix.Dense, part.R)
	for i := range vals {
		vals[i] = ring.Identity
	}
	sv := float32(src)
	if ring.Kind == semiring.KindSSSP {
		sv = 0
	}
	vals[src] = sv
	return vals, &matrix.SparseVec{N: part.C, Idx: []int32{src}, Val: []float32{sv}}
}

// trajectory is a traversal iteration by iteration: the values after
// each iteration and the frontier it emits. The last iteration pushes
// an empty frontier.
type trajectory struct {
	vals []matrix.Dense
	next []*matrix.SparseVec
}

// heapTrajectory runs one traversal of ring from src through
// NativeOPMulti and NativeScatterMerge, the simulator's order.
func heapTrajectory(t *testing.T, what string, part *OPPartition, ring semiring.Semiring, src int32) trajectory {
	t.Helper()
	vals, f := traversalStart(part, ring, src)
	var tr trajectory
	for it := 0; ; it++ {
		if it > 4*part.R {
			t.Fatalf("%s: no convergence", what)
		}
		vals = vals.Clone()
		op := Operand{Ring: ring}
		if ring.Kind == semiring.KindSSSP {
			op.Prev = vals
		}
		contrib := NativeOPMulti(part, []*matrix.SparseVec{f}, []Operand{op}, 4)[0]
		_, next := NativeScatterMerge(contrib, vals, op)
		tr.vals, tr.next = append(tr.vals, vals), append(tr.next, next)
		if f.NNZ() == 0 {
			return tr
		}
		f = next
	}
}

// fusedTraversal runs the traversal want records through
// NativePushMerge, failing at the first iteration whose values or next
// frontier differ from it.
func fusedTraversal(t *testing.T, what string, part *OPPartition, ring semiring.Semiring, src int32, want trajectory) {
	t.Helper()
	vals, f := traversalStart(part, ring, src)
	lane := Operand{Ring: ring, Scratch: new(Scratch)}
	if ring.Kind == semiring.KindSSSP {
		lane.Prev = vals
	}
	for it := range want.vals {
		at := fmt.Sprintf("%s iteration %d (|F| = %d)", what, it, f.NNZ())
		next, _, ok := NativePushMerge(part, f, vals, lane)
		if !ok {
			t.Fatalf("%s: the lane was not taken by the fused pass", at)
		}
		sameBits(t, at+": values", vals, want.vals[it])
		sameSparse(t, at+": next frontier", next, want.next[it])
		f = next
	}
}
