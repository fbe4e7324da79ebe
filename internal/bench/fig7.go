package bench

import (
	"fmt"

	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// Fig7Cell is one bar of Fig. 7: a power-law matrix's SpMV time on one
// hardware configuration, with or without nnz-balanced partitioning,
// normalized to the uniform matrix of the same dimension and density.
type Fig7Cell struct {
	Matrix    string
	Config    sim.HWConfig
	Balancing kernels.Balancing
	// Normalized is powerLawCycles / uniformCycles.
	Normalized float64
}

// Fig7Result holds both panels of Fig. 7.
type Fig7Result struct {
	IP []Fig7Cell // vector density 1.0, configs SC and SCS
	OP []Fig7Cell // vector density 0.1, configs PC and PS
}

// Get returns one cell.
func (r *Fig7Result) Get(panelIP bool, m string, hw sim.HWConfig, b kernels.Balancing) (Fig7Cell, bool) {
	cells := r.OP
	if panelIP {
		cells = r.IP
	}
	for _, c := range cells {
		if c.Matrix == m && c.Config == hw && c.Balancing == b {
			return c, true
		}
	}
	return Fig7Cell{}, false
}

// fig7Matrices mirrors the Fig. 7 inputs: power-law matrices with N
// from 131k to 1M and ~840k nonzeros (r from 4.9e-5 to 6.7e-6).
func fig7Matrices(s Scale) []sweepMatrix {
	d := s.Div()
	base := []struct {
		n   int
		nnz int
	}{
		{131072, 840000},
		{262144, 1780000},
		{524288, 3570000},
		{1048576, 7030000},
	}
	out := make([]sweepMatrix, len(base))
	for i, b := range base {
		n := b.n / d
		nnz := b.nnz / d
		r := float64(nnz) / (float64(n) * float64(n))
		out[i] = sweepMatrix{Name: fmt.Sprintf("N=%s r=%.1e", kfmt(n), r), N: n, NNZ: nnz}
	}
	return out
}

// Fig7 reproduces the workload-balancing evaluation on an 8×16 system:
// power-law SpMV time normalized to uniform matrices, for both
// balancing strategies, IP at vector density 1.0 (panel a) and OP at
// 0.1 (panel b).
func Fig7(s Scale) (*Fig7Result, *Table) {
	g := sim.Geometry{Tiles: 8, PEsPerTile: 16}
	if s == ScaleTiny {
		g = sim.Geometry{Tiles: 4, PEsPerTile: 8} // keep PEs busy on tiny inputs
	}
	res := &Fig7Result{}
	tbl := &Table{
		Title:  "Fig. 7 — Power-law SpMV time normalized to uniform (8x16)",
		Header: []string{"panel", "matrix", "config", "balancing", "normalized time"},
		Notes: []string{
			"scale: " + s.String(),
			"IP panel: vector density 1.0; OP panel: 0.1",
			"<1 means the power-law matrix runs faster than the uniform one",
		},
	}

	ring := semiring.SpMV()
	op := kernels.Operand{Ring: ring}
	par := s.Params()

	for _, mspec := range fig7Matrices(s) {
		uni := gen.Uniform(mspec.N, mspec.NNZ, gen.Pattern, 701)
		// RMAT: power-law with the id/degree correlation of
		// preferential-attachment generators (hubs at low ids), the
		// layout that makes naive equal-row-range partitioning
		// unbalanced — matching the paper's NetworkX inputs.
		pl := gen.RMAT(log2(mspec.N), mspec.NNZ, gen.Pattern, 702)

		// ---- IP panel (vector density 1.0) ----
		fIP := gen.Frontier(mspec.N, 1.0, 703)
		xIP := fIP.ToDense(0)
		for _, hw := range []sim.HWConfig{sim.SC, sim.SCS} {
			cfg := sim.Config{Geometry: g, HW: hw, Params: par}
			vb := sim.Config{Geometry: g, HW: sim.SCS, Params: par}.SPMWordsPerTile()
			uniPart := kernels.NewIPPartition(uni, g.TotalPEs(), vb, kernels.BalanceNNZ)
			_, uniRes := kernels.RunIP(cfg, uniPart, xIP, op)
			for _, b := range []kernels.Balancing{kernels.BalanceRows, kernels.BalanceNNZ} {
				plPart := kernels.NewIPPartition(pl, g.TotalPEs(), vb, b)
				_, plRes := kernels.RunIP(cfg, plPart, xIP, op)
				cell := Fig7Cell{
					Matrix: mspec.Name, Config: hw, Balancing: b,
					Normalized: float64(plRes.Cycles) / float64(uniRes.Cycles),
				}
				res.IP = append(res.IP, cell)
				tbl.AddRow("IP", mspec.Name, hw.String(), b.String(), f3(cell.Normalized))
			}
		}

		// ---- OP panel (vector density 0.1) ----
		fOP := gen.Frontier(mspec.N, 0.1, 704)
		for _, hw := range []sim.HWConfig{sim.PC, sim.PS} {
			cfg := sim.Config{Geometry: g, HW: hw, Params: par}
			uniPart := kernels.NewOPPartition(uni, g.Tiles, kernels.BalanceNNZ)
			_, uniRes := kernels.RunOP(cfg, uniPart, fOP, op)
			for _, b := range []kernels.Balancing{kernels.BalanceRows, kernels.BalanceNNZ} {
				plPart := kernels.NewOPPartition(pl, g.Tiles, b)
				_, plRes := kernels.RunOP(cfg, plPart, fOP, op)
				cell := Fig7Cell{
					Matrix: mspec.Name, Config: hw, Balancing: b,
					Normalized: float64(plRes.Cycles) / float64(uniRes.Cycles),
				}
				res.OP = append(res.OP, cell)
				tbl.AddRow("OP", mspec.Name, hw.String(), b.String(), f3(cell.Normalized))
			}
		}
	}
	return res, tbl
}

// fig7MatrixOf exposes the generated matrices for tests.
func fig7MatrixOf(s Scale, i int) *matrix.COO {
	mspec := fig7Matrices(s)[i]
	return gen.RMAT(log2(mspec.N), mspec.NNZ, gen.Pattern, 702)
}

// log2 of an exact power of two (the Fig. 7 dimensions all are).
func log2(n int) uint {
	k := uint(0)
	for 1<<k < n {
		k++
	}
	return k
}
