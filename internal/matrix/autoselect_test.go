package matrix_test

import (
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
)

// The selector's two-way comparison, pinned on every graph family the
// repository generates: the Table III stand-ins and the benchmark's
// workload shapes, each as a pattern and as a weighted matrix, all
// compress past the threshold — and so does a uniform matrix at 39 %
// density, ten times denser than the densest stand-in and the one shape
// where a bitmap-block encoding measured smaller than delta-varint
// (2.70× against 2.40×; it was 0.83–0.95× of plain CSR on the social
// graphs below). A candidate third format has to beat DVCSR's bytes on
// rows of this table, and native wall with it, before it earns a place
// beside it. CSR stays the answer only where compression cannot pay: a
// few weighted elements scattered over a huge column space.
func TestAutoSelect(t *testing.T) {
	check := func(name string, m *matrix.COO, want matrix.Format) {
		t.Helper()
		if got := matrix.AutoSelectStore(m); got != want {
			t.Errorf("%s (%d×%d, %d nnz, %.2f× as dvcsr): selected %v, want %v", name, m.R, m.C, m.NNZ(),
				float64(12*m.NNZ())/float64(matrix.EstimateDVCSRBytes(m)), got, want)
		}
	}
	// The weighted twin of a pattern matrix: same structure, no value
	// the encoding could elide.
	bothModes := func(name string, m *matrix.COO) {
		t.Helper()
		check(name+"/pattern", m, matrix.FormatDVCSR)
		w := *m
		w.Val = make([]float32, len(m.Val))
		for k := range w.Val {
			w.Val[k] = 0.5
		}
		check(name+"/weighted", &w, matrix.FormatDVCSR)
	}
	for _, spec := range gen.Suite {
		bothModes(spec.Name, spec.Build(spec.ScaleForBudget(1<<18), gen.Pattern, 1))
	}
	// cosparse.GeneratePowerLaw's generator and skew, at the sizes
	// benchmark/workloads.go gives its six workloads.
	for name, size := range map[string][2]int{
		"lib-pr-dense, lib-traverse-sparse, lib-cold-dvcsr": {65536, 1 << 20},
		"lib-sim-paper":    {4096, 65536},
		"svc-tiny-durable": {512, 4096},
		"svc-ppr-open":     {8192, 131072},
	} {
		bothModes(name, gen.PowerLaw(size[0], size[1], 0.55, gen.Pattern, 42))
	}
	check("uniform 39% dense", gen.Uniform(2048, 1635779, gen.Pattern, 53), matrix.FormatDVCSR)
	check("wide and weighted", matrix.MustCOO(4, 1<<30, []matrix.Coord{
		{Row: 0, Col: 1 << 29, Val: 0.5}, {Row: 1, Col: 1<<29 + 7, Val: 0.25},
		{Row: 2, Col: 1 << 28, Val: 0.125}, {Row: 3, Col: 1<<30 - 1, Val: 0.75},
	}), matrix.FormatCSR)
}
