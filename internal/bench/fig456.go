package bench

import (
	"fmt"

	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// spmvCycles runs one plain-semiring SpMV kernel under the given
// configuration and returns its cycle count (kernel only, like the
// paper's per-invocation measurements).
func spmvCycles(cfg sim.Config, coo *matrix.COO, f *matrix.SparseVec, useIP bool) int64 {
	op := kernels.Operand{Ring: semiring.SpMV()}
	if useIP {
		// Both SC and SCS traverse the vblocked layout sized to the SCS
		// scratchpad (§III-B: blocking "can still be beneficial" for SC).
		vb := sim.Config{Geometry: cfg.Geometry, HW: sim.SCS, Params: cfg.Params}.SPMWordsPerTile()
		part := kernels.NewIPPartition(coo, cfg.Geometry.TotalPEs(), vb, kernels.BalanceNNZ)
		_, res := kernels.RunIP(cfg, part, f.ToDense(0), op)
		return res.Cycles
	}
	part := kernels.NewOPPartition(coo, cfg.Geometry.Tiles, kernels.BalanceNNZ)
	_, res := kernels.RunOP(cfg, part, f, op)
	return res.Cycles
}

// CellKey addresses one point of a Fig. 4–6 sweep.
type CellKey struct {
	Matrix  string
	System  string
	Density float64
}

// SweepResult holds one figure's sweep grid.
type SweepResult struct {
	Matrices  []sweepMatrix
	Systems   []sim.Geometry
	Densities []float64
	// Value is the figure's y-axis per cell: a speedup ratio (Fig. 4)
	// or a relative gain (Figs. 5–6).
	Value map[CellKey]float64
}

// Crossover returns, for one matrix/system series of Fig. 4, the
// largest density at which OP still beats IP (the paper's CVD), or 0
// if IP always wins.
func (r *SweepResult) Crossover(matrix, system string) float64 {
	cvd := 0.0
	for _, d := range r.Densities {
		if r.Value[CellKey{matrix, system, d}] > 1 && d > cvd {
			cvd = d
		}
	}
	return cvd
}

var fig4Systems = []sim.Geometry{
	{Tiles: 4, PEsPerTile: 8}, {Tiles: 4, PEsPerTile: 16}, {Tiles: 4, PEsPerTile: 32},
	{Tiles: 8, PEsPerTile: 8}, {Tiles: 8, PEsPerTile: 16}, {Tiles: 8, PEsPerTile: 32},
}

var fig56Systems = []sim.Geometry{
	{Tiles: 4, PEsPerTile: 8}, {Tiles: 4, PEsPerTile: 16},
	{Tiles: 8, PEsPerTile: 8}, {Tiles: 8, PEsPerTile: 16},
}

// Fig4 reproduces "Speedup of OP (PC) vs. IP (SC)": uniform matrices,
// vector densities 0.0025–0.04, six system sizes. Values > 1 mean OP
// wins; the crossover density falls as PEs/tile grows.
func Fig4(s Scale) (*SweepResult, *Table) {
	par := s.Params()
	res := &SweepResult{
		Matrices:  sweepMatrices(s),
		Systems:   fig4Systems,
		Densities: vecDensities,
		Value:     map[CellKey]float64{},
	}
	tbl := &Table{
		Title:  "Fig. 4 — Speedup of OP (PC) vs IP (SC)",
		Header: append([]string{"matrix", "system"}, densHeader()...),
		Notes: []string{
			"scale: " + s.String(),
			"value = cycles(IP on SC) / cycles(OP on PC); >1 means OP faster",
		},
	}
	coos := make([]*matrix.COO, len(res.Matrices))
	parallelCells(len(res.Matrices), func(mi int) {
		coos[mi] = gen.Uniform(res.Matrices[mi].N, res.Matrices[mi].NNZ, gen.Pattern, 401)
	})
	nG, nD := len(res.Systems), len(res.Densities)
	vals := make([]float64, len(res.Matrices)*nG*nD)
	parallelCells(len(vals), func(i int) {
		mi, rest := i/(nG*nD), i%(nG*nD)
		gi, di := rest/nD, rest%nD
		g, d := res.Systems[gi], res.Densities[di]
		f := gen.Frontier(res.Matrices[mi].N, d, 402)
		ip := spmvCycles(sim.Config{Geometry: g, HW: sim.SC, Params: par}, coos[mi], f, true)
		op := spmvCycles(sim.Config{Geometry: g, HW: sim.PC, Params: par}, coos[mi], f, false)
		vals[i] = float64(ip) / float64(op)
	})
	for mi, mspec := range res.Matrices {
		for gi, g := range res.Systems {
			row := []string{mspec.Name, g.String()}
			for di, d := range res.Densities {
				v := vals[mi*nG*nD+gi*nD+di]
				res.Value[CellKey{mspec.Name, g.String(), d}] = v
				row = append(row, f2(v))
			}
			tbl.AddRow(row...)
		}
	}
	return res, tbl
}

// Fig5 reproduces "Speedup of SCS vs SC for IP": the gain from staging
// the frontier vblock in the shared scratchpad, growing with vector
// density and scratchpad reuse.
func Fig5(s Scale) (*SweepResult, *Table) {
	par := s.Params()
	res := &SweepResult{
		Matrices:  sweepMatrices(s),
		Systems:   fig56Systems,
		Densities: vecDensities,
		Value:     map[CellKey]float64{},
	}
	tbl := &Table{
		Title:  "Fig. 5 — Speedup of SCS vs SC (IP)",
		Header: append([]string{"matrix", "system"}, densHeader()...),
		Notes: []string{
			"scale: " + s.String(),
			"value = cycles(SC)/cycles(SCS) − 1; positive means SCS faster",
		},
	}
	coos := make([]*matrix.COO, len(res.Matrices))
	parallelCells(len(res.Matrices), func(mi int) {
		coos[mi] = gen.Uniform(res.Matrices[mi].N, res.Matrices[mi].NNZ, gen.Pattern, 501)
	})
	nG, nD := len(res.Systems), len(res.Densities)
	vals := make([]float64, len(res.Matrices)*nG*nD)
	parallelCells(len(vals), func(i int) {
		mi, rest := i/(nG*nD), i%(nG*nD)
		gi, di := rest/nD, rest%nD
		g, d := res.Systems[gi], res.Densities[di]
		f := gen.Frontier(res.Matrices[mi].N, d, 502)
		sc := spmvCycles(sim.Config{Geometry: g, HW: sim.SC, Params: par}, coos[mi], f, true)
		scs := spmvCycles(sim.Config{Geometry: g, HW: sim.SCS, Params: par}, coos[mi], f, true)
		vals[i] = float64(sc)/float64(scs) - 1
	})
	for mi, mspec := range res.Matrices {
		for gi, g := range res.Systems {
			row := []string{mspec.Name, g.String()}
			for di, d := range res.Densities {
				v := vals[mi*nG*nD+gi*nD+di]
				res.Value[CellKey{mspec.Name, g.String(), d}] = v
				row = append(row, pct(v))
			}
			tbl.AddRow(row...)
		}
	}
	return res, tbl
}

// Fig6 reproduces "Speedup of PS vs PC for OP": the gain from holding
// the merge heap in the private scratchpad, growing with vector density
// and tile count, shrinking with PEs per tile.
func Fig6(s Scale) (*SweepResult, *Table) {
	par := s.Params()
	res := &SweepResult{
		Matrices:  sweepMatrices(s),
		Systems:   fig56Systems,
		Densities: vecDensities,
		Value:     map[CellKey]float64{},
	}
	tbl := &Table{
		Title:  "Fig. 6 — Speedup of PS vs PC (OP)",
		Header: append([]string{"matrix", "system"}, densHeader()...),
		Notes: []string{
			"scale: " + s.String(),
			"value = cycles(PC)/cycles(PS) − 1; positive means PS faster",
		},
	}
	coos := make([]*matrix.COO, len(res.Matrices))
	parallelCells(len(res.Matrices), func(mi int) {
		coos[mi] = gen.Uniform(res.Matrices[mi].N, res.Matrices[mi].NNZ, gen.Pattern, 601)
	})
	nG, nD := len(res.Systems), len(res.Densities)
	vals := make([]float64, len(res.Matrices)*nG*nD)
	parallelCells(len(vals), func(i int) {
		mi, rest := i/(nG*nD), i%(nG*nD)
		gi, di := rest/nD, rest%nD
		g, d := res.Systems[gi], res.Densities[di]
		f := gen.Frontier(res.Matrices[mi].N, d, 602)
		pc := spmvCycles(sim.Config{Geometry: g, HW: sim.PC, Params: par}, coos[mi], f, false)
		ps := spmvCycles(sim.Config{Geometry: g, HW: sim.PS, Params: par}, coos[mi], f, false)
		vals[i] = float64(pc)/float64(ps) - 1
	})
	for mi, mspec := range res.Matrices {
		for gi, g := range res.Systems {
			row := []string{mspec.Name, g.String()}
			for di, d := range res.Densities {
				v := vals[mi*nG*nD+gi*nD+di]
				res.Value[CellKey{mspec.Name, g.String(), d}] = v
				row = append(row, pct(v))
			}
			tbl.AddRow(row...)
		}
	}
	return res, tbl
}

func densHeader() []string {
	out := make([]string, len(vecDensities))
	for i, d := range vecDensities {
		out[i] = fmt.Sprintf("d=%g", d)
	}
	return out
}
