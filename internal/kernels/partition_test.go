package kernels

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// storesOf returns m in every resident format.
func storesOf(t *testing.T, m *matrix.COO) []matrix.Store {
	t.Helper()
	dv, err := matrix.EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	return []matrix.Store{m, dv}
}

// Every tile cut from the row store must equal, element for element,
// the whole-graph column store filtered to the tile's row range — the
// slices the column-streaming build used to produce.
func TestOPTilesFromRowsMatchColumnStream(t *testing.T) {
	// One row holds most of the elements, so the nnz-balanced cuts
	// repeat (empty tiles); columns 40.. are empty.
	var hot []matrix.Coord
	for c := int32(0); c < 40; c++ {
		hot = append(hot, matrix.Coord{Row: 5, Col: c, Val: 1})
	}
	hot = append(hot, matrix.Coord{Row: 0, Col: 3, Val: 1}, matrix.Coord{Row: 11, Col: 39, Val: 1})
	graphs := map[string]*matrix.COO{
		"powerlaw": gen.PowerLaw(300, 3000, 0.6, gen.Pattern, 21),
		"weighted": gen.PowerLaw(200, 1500, 0.5, gen.UniformWeight, 22),
		"hotrow":   matrix.MustCOO(12, 64, hot),
		"empty":    matrix.MustCOO(9, 9, nil),
	}
	for name, m := range graphs {
		want := matrix.CSCOf(m)
		for _, st := range storesOf(t, m) {
			for _, b := range []Balancing{BalanceNNZ, BalanceRows} {
				for _, tiles := range []int{1, 4, 16, m.R + 3} {
					p := NewOPPartition(st, tiles, b)
					p.Materialize()
					what := fmt.Sprintf("%s/%s/%v/%d tiles", name, st.Format(), b, tiles)
					total := 0
					for tl := 0; tl < tiles; tl++ {
						lo, hi := p.RowBounds[tl], p.RowBounds[tl+1]
						colPtr := make([]int32, m.C+1)
						var row []int32
						var val []float32
						for j := 0; j < m.C; j++ {
							for q := want.ColPtr[j]; q < want.ColPtr[j+1]; q++ {
								if r := want.Row[q]; r >= lo && r < hi {
									row = append(row, r)
									val = append(val, want.Val[q])
								}
							}
							colPtr[j+1] = int32(len(row))
						}
						if !slices.Equal(p.ColPtr[tl], colPtr) || !slices.Equal(p.Row[tl], row) || !slices.Equal(p.Val[tl], val) {
							t.Fatalf("%s: tile %d differs from the filtered column store", what, tl)
						}
						total += len(row)
					}
					if total != m.NNZ() {
						t.Fatalf("%s: tiles hold %d elements, matrix %d", what, total, m.NNZ())
					}
				}
			}
		}
	}
}

// Both builds run one worker per GOMAXPROCS; the layout must not depend
// on how many there were.
func TestPartitionsIndependentOfGOMAXPROCS(t *testing.T) {
	m := gen.PowerLaw(500, 6000, 0.6, gen.UniformWeight, 23)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, st := range storesOf(t, m) {
		build := func(procs int) (*IPPartition, *OPPartition) {
			runtime.GOMAXPROCS(procs)
			ip := NewIPPartition(st, 32, 64, BalanceNNZ)
			ip.Materialize()
			op := NewOPPartition(st, 8, BalanceNNZ)
			op.Materialize()
			return ip, op
		}
		ip1, op1 := build(1)
		ip4, op4 := build(4)
		if !reflect.DeepEqual(ip1.Row, ip4.Row) || !reflect.DeepEqual(ip1.Col, ip4.Col) || !reflect.DeepEqual(ip1.Val, ip4.Val) ||
			!reflect.DeepEqual(ip1.Segs, ip4.Segs) {
			t.Fatalf("%s: IP partition differs between GOMAXPROCS 1 and 4", st.Format())
		}
		if !reflect.DeepEqual(op1.ColPtr, op4.ColPtr) || !reflect.DeepEqual(op1.Row, op4.Row) || !reflect.DeepEqual(op1.Val, op4.Val) {
			t.Fatalf("%s: OP partition differs between GOMAXPROCS 1 and 4", st.Format())
		}
	}
}

// Engines share partitions across jobs, so the first kernels to arrive
// race to materialise: exactly one build may happen and every racer
// must see it complete.
func TestMaterializeConcurrent(t *testing.T) {
	m := gen.PowerLaw(400, 5000, 0.6, gen.UniformWeight, 24)
	dv, err := matrix.EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	ip := NewIPPartition(dv, 16, 64, BalanceNNZ)
	op := NewOPPartition(dv, 4, BalanceNNZ)
	ops := []Operand{{Ring: semiring.SpMV()}}
	f := gen.Frontier(m.C, 0.05, 25)
	x := gen.Frontier(m.C, 1, 26).ToDense(0)
	wantIP := NativeIPMulti(NewIPPartition(m, 16, 64, BalanceNNZ), []matrix.Dense{x}, ops)[0]
	wantOP := NativeOPMulti(NewOPPartition(m, 4, BalanceNNZ), []*matrix.SparseVec{f}, ops, 4)[0]

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ip.Materialize()
			op.Materialize()
			gotIP := NativeIPMulti(ip, []matrix.Dense{x}, ops)[0]
			gotOP := NativeOPMulti(op, []*matrix.SparseVec{f}, ops, 4)[0]
			if !slices.Equal(gotIP, wantIP) {
				t.Error("IP result differs after a raced Materialize")
			}
			if !slices.Equal(gotOP.Idx, wantOP.Idx) || !slices.Equal(gotOP.Val, wantOP.Val) {
				t.Error("OP result differs after a raced Materialize")
			}
		}()
	}
	wg.Wait()
}

// cutTestGraphs are TestOPTilesFromRowsMatchColumnStream's graphs plus
// two whose weights fail minPlusSafe: one +Inf, one negative.
func cutTestGraphs() map[string]*matrix.COO {
	var hot []matrix.Coord
	for c := int32(0); c < 40; c++ {
		hot = append(hot, matrix.Coord{Row: 5, Col: c, Val: 1})
	}
	hot = append(hot, matrix.Coord{Row: 0, Col: 3, Val: 1}, matrix.Coord{Row: 11, Col: 39, Val: 1})
	withVal := func(seed uint64, v float32) *matrix.COO {
		m := gen.PowerLaw(200, 1500, 0.5, gen.UniformWeight, seed)
		m.Val[len(m.Val)/2] = v
		return m
	}
	return map[string]*matrix.COO{
		"powerlaw": gen.PowerLaw(300, 3000, 0.6, gen.Pattern, 21),
		"weighted": gen.PowerLaw(200, 1500, 0.5, gen.UniformWeight, 22),
		"hotrow":   matrix.MustCOO(12, 64, hot),
		"empty":    matrix.MustCOO(9, 9, nil),
		"inf":      withVal(27, float32(math.Inf(1))),
		"negative": withVal(28, -0.5),
	}
}

// bitsEqual compares float32 slices bit for bit.
func bitsEqual(a, b []float32) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
}

// The OP tiles NewPartitions cuts at any PE count and vblock width
// must be byte-identical to NewOPPartition's cut at one PE per tile and
// no vblocks (which TestOPTilesFromRowsMatchColumnStream holds to the
// column store), minPlusSafe included, and the degrees counted while
// the IP partition materialises must be matrix.OutDegreesOf's.
func TestOPTilesIndependentOfPEsAndVBlocks(t *testing.T) {
	spm := cfg(4, 4, sim.SCS).SPMWordsPerTile()
	sssp := semiring.SSSP()
	graphs := cutTestGraphs()
	for name, m := range graphs {
		for _, st := range storesOf(t, m) {
			wantDeg := matrix.OutDegreesOf(st)
			for _, b := range []Balancing{BalanceNNZ, BalanceRows} {
				for _, vb := range []int{0, 64, spm} {
					for _, g := range [][2]int{{1, 1}, {4, 4}, {16, 2}, {m.R + 3, 1}} {
						tiles, pes := g[0], g[1]
						what := fmt.Sprintf("%s/%s/%v/vblock %d/%dx%d", name, st.Format(), b, vb, tiles, pes)
						ip, op := NewPartitions(st, tiles, pes, vb, b)
						want := NewOPPartition(st, tiles, b)
						if !slices.Equal(op.RowBounds, want.RowBounds) {
							t.Fatalf("%s: tile cuts %v, want %v", what, op.RowBounds, want.RowBounds)
						}
						// The flag comes from the IP materialisation,
						// before any tile is cut.
						if got := op.MinRingFast(&sssp); got != want.MinRingFast(&sssp) || op.ColPtr != nil {
							t.Fatalf("%s: MinRingFast(SSSP) = %v (tiles cut: %v), one PE per tile says %v",
								what, got, op.ColPtr != nil, !got)
						}
						op.Materialize()
						want.Materialize()
						for tl := 0; tl < tiles; tl++ {
							if !slices.Equal(op.ColPtr[tl], want.ColPtr[tl]) || !slices.Equal(op.Row[tl], want.Row[tl]) ||
								!bitsEqual(op.Val[tl], want.Val[tl]) {
								t.Fatalf("%s: tile %d differs from the one-PE-per-tile cut", what, tl)
							}
						}
						if !slices.Equal(ip.OutDegrees(), wantDeg) {
							t.Fatalf("%s: OutDegrees differs from matrix.OutDegreesOf", what)
						}
					}
				}
			}
		}
	}
	for name, safe := range map[string]bool{"weighted": true, "inf": false, "negative": false} {
		if _, op := NewPartitions(graphs[name], 2, 2, 0, BalanceNNZ); op.MinRingFast(&sssp) != safe {
			t.Fatalf("%s: MinRingFast(SSSP) = %v, want %v", name, !safe, safe)
		}
	}
}

// Eight kernels race OutDegrees and the OP cut on one cold pair of
// partitions: one IP materialisation and one cut may happen, and every
// racer must see both complete.
func TestCutFromIPConcurrent(t *testing.T) {
	m := gen.PowerLaw(400, 5000, 0.6, gen.UniformWeight, 24)
	dv, err := matrix.EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	ip, op := NewPartitions(dv, 4, 4, 64, BalanceNNZ)
	ops := []Operand{{Ring: semiring.SpMV()}}
	f := gen.Frontier(m.C, 0.05, 25)
	wantOP := NativeOPMulti(NewOPPartition(m, 4, BalanceNNZ), []*matrix.SparseVec{f}, ops, 4)[0]
	wantDeg := m.OutDegrees()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				op.Materialize()
			}
			gotOP := NativeOPMulti(op, []*matrix.SparseVec{f}, ops, 4)[0]
			if !slices.Equal(ip.OutDegrees(), wantDeg) {
				t.Error("OutDegrees differs after a raced materialisation")
			}
			if !slices.Equal(gotOP.Idx, wantOP.Idx) || !slices.Equal(gotOP.Val, wantOP.Val) {
				t.Error("OP result differs after a raced cut")
			}
		}()
	}
	wg.Wait()
}

// The column index NewPartitions cuts from the IP arrays, vblock by
// vblock, must be byte-identical to matrix.CSCOf's decode of the store,
// with every column's rows ascending.
func TestColumnIndexFromIPMatchesStoreDecode(t *testing.T) {
	spm := cfg(4, 4, sim.SCS).SPMWordsPerTile()
	for name, m := range cutTestGraphs() {
		for _, st := range storesOf(t, m) {
			want := matrix.CSCOf(st)
			for j := 0; j < m.C; j++ {
				if col := want.Row[want.ColPtr[j]:want.ColPtr[j+1]]; !slices.IsSorted(col) {
					t.Fatalf("%s/%s: column %d rows %v not ascending", name, st.Format(), j, col)
				}
			}
			for _, vb := range []int{0, 1, 7, 64, spm} {
				for _, g := range [][2]int{{1, 1}, {4, 4}, {m.R + 3, 1}} {
					_, op := NewPartitions(st, g[0], g[1], vb, BalanceNNZ)
					got := op.columns()
					if !slices.Equal(got.ptr, want.ColPtr) || !slices.Equal(got.row, want.Row) || !bitsEqual(got.val, want.Val) {
						t.Fatalf("%s/%s/vblock %d/%dx%d: column index differs from the store decode", name, st.Format(), vb, g[0], g[1])
					}
					if op.ColPtr != nil {
						t.Fatalf("%s/%s: cutting the column index cut the tiles", name, st.Format())
					}
				}
			}
		}
	}
}
