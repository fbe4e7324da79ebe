package kernels

import (
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// Fig. 9 evaluates OP under shared-memory configurations too; the
// kernel must stay correct on every HWConfig, not just its natural
// pairings.
func TestOPCorrectUnderAllHWConfigs(t *testing.T) {
	m := gen.PowerLaw(300, 3000, 0.5, gen.UniformWeight, 61)
	csc := m.ToCSC()
	f := gen.Frontier(m.C, 0.05, 62)
	op := Operand{Ring: semiring.SpMV()}
	want := matrix.RefSpMVSparse(csc, f).ToDense(0)
	for _, hw := range []sim.HWConfig{sim.SC, sim.SCS, sim.PC, sim.PS} {
		c := cfg(2, 4, hw)
		part := NewOPPartition(m, c.Geometry.Tiles, BalanceNNZ)
		got, res := RunOP(c, part, f, op)
		if res.Cycles <= 0 {
			t.Fatalf("%v: no cycles", hw)
		}
		dense := got.ToDense(0)
		for i := range want {
			if !approxEqual(want[i], dense[i]) {
				t.Fatalf("%v: row %d: want %g got %g", hw, i, want[i], dense[i])
			}
		}
	}
}

// IP must stay correct under the private configurations as well.
func TestIPCorrectUnderAllHWConfigs(t *testing.T) {
	m := gen.Uniform(200, 2000, gen.UniformWeight, 63)
	f := gen.Frontier(m.C, 0.8, 64)
	op := Operand{Ring: semiring.SpMV()}
	want := matrix.RefSpMV(m, f.ToDense(0))
	for _, hw := range []sim.HWConfig{sim.SC, sim.SCS, sim.PC, sim.PS} {
		c := cfg(2, 4, hw)
		vb := 0
		if hw == sim.SCS {
			vb = c.SPMWordsPerTile()
		}
		part := NewIPPartition(m, c.Geometry.TotalPEs(), vb, BalanceNNZ)
		got, _ := RunIP(c, part, f.ToDense(0), op)
		for i := range want {
			if !approxEqual(want[i], got[i]) {
				t.Fatalf("%v: row %d: want %g got %g", hw, i, want[i], got[i])
			}
		}
	}
}

func TestOPEmptyFrontier(t *testing.T) {
	m := gen.Uniform(100, 500, gen.Pattern, 65)
	c := cfg(2, 4, sim.PC)
	part := NewOPPartition(m, c.Geometry.Tiles, BalanceNNZ)
	out, res := RunOP(c, part, &matrix.SparseVec{N: 100}, Operand{Ring: semiring.SpMV()})
	if out.NNZ() != 0 {
		t.Fatalf("empty frontier produced %d outputs", out.NNZ())
	}
	if res.Cycles < 0 {
		t.Fatal("negative cycles")
	}
}

func TestOPSingletonFrontier(t *testing.T) {
	m := gen.Uniform(100, 800, gen.Pattern, 66)
	csc := m.ToCSC()
	c := cfg(2, 4, sim.PS)
	part := NewOPPartition(m, c.Geometry.Tiles, BalanceNNZ)
	f, err := matrix.NewSparseVec(100, []int32{42}, []float32{2})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := RunOP(c, part, f, Operand{Ring: semiring.SpMV()})
	want := matrix.RefSpMVSparse(csc, f)
	if out.NNZ() != want.NNZ() {
		t.Fatalf("outputs %d, want %d", out.NNZ(), want.NNZ())
	}
}

func TestIPEmptyMatrix(t *testing.T) {
	m := matrix.MustCOO(50, 50, nil)
	c := cfg(1, 2, sim.SC)
	part := NewIPPartition(m, c.Geometry.TotalPEs(), 0, BalanceNNZ)
	out, res := RunIP(c, part, make(matrix.Dense, 50), Operand{Ring: semiring.SpMV()})
	for _, v := range out {
		if v != 0 {
			t.Fatal("empty matrix produced nonzero output")
		}
	}
	if res.Cycles < 0 {
		t.Fatal("negative cycles")
	}
}

func TestIPSingleRowHotspot(t *testing.T) {
	// Every element in one row: the nnz-balanced cut cannot split a row,
	// so one PE gets everything — validate correctness, not balance.
	elems := make([]matrix.Coord, 200)
	for i := range elems {
		elems[i] = matrix.Coord{Row: 7, Col: int32(i % 100), Val: 1}
	}
	m := matrix.MustCOO(100, 100, elems)
	c := cfg(2, 4, sim.SC)
	part := NewIPPartition(m, c.Geometry.TotalPEs(), 0, BalanceNNZ)
	if err := part.Validate(m); err != nil {
		t.Fatal(err)
	}
	x := make(matrix.Dense, 100)
	for i := range x {
		x[i] = 1
	}
	out, _ := RunIP(c, part, x, Operand{Ring: semiring.SpMV()})
	want := matrix.RefSpMV(m, x)
	for i := range want {
		if !approxEqual(want[i], out[i]) {
			t.Fatalf("row %d: %g want %g", i, out[i], want[i])
		}
	}
}

func TestOPDuplicateRowsAcrossPEs(t *testing.T) {
	// A row receiving contributions from columns assigned to different
	// PEs exercises the LCP's cross-stream reduce.
	elems := []matrix.Coord{}
	for col := int32(0); col < 16; col++ {
		elems = append(elems, matrix.Coord{Row: 3, Col: col, Val: 1})
	}
	m := matrix.MustCOO(8, 16, elems)
	c := cfg(1, 4, sim.PC)
	part := NewOPPartition(m, 1, BalanceNNZ)
	idx := make([]int32, 16)
	val := make([]float32, 16)
	for i := range idx {
		idx[i] = int32(i)
		val[i] = 1
	}
	f, err := matrix.NewSparseVec(16, idx, val)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := RunOP(c, part, f, Operand{Ring: semiring.SpMV()})
	if out.NNZ() != 1 || out.Idx[0] != 3 || out.Val[0] != 16 {
		t.Fatalf("out = %+v, want row 3 = 16", out)
	}
}

func TestRunIPPanicsOnBadFrontier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched frontier length")
		}
	}()
	m := gen.Uniform(50, 100, gen.Pattern, 67)
	c := cfg(1, 2, sim.SC)
	part := NewIPPartition(m, 2, 0, BalanceNNZ)
	RunIP(c, part, make(matrix.Dense, 10), Operand{Ring: semiring.SpMV()})
}

func TestRunOPPanicsOnWrongTileCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on tile mismatch")
		}
	}()
	m := gen.Uniform(50, 100, gen.Pattern, 68)
	part := NewOPPartition(m, 4, BalanceNNZ)
	RunOP(cfg(2, 2, sim.PC), part, &matrix.SparseVec{N: 50}, Operand{Ring: semiring.SpMV()})
}
