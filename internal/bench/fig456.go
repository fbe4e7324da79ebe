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
// paper's per-invocation measurements): IP on SC and SCS, OP on PC and
// PS, the dataflow each hardware mode serves.
func spmvCycles(cfg sim.Config, coo *matrix.COO, f *matrix.SparseVec) int64 {
	op := kernels.Operand{Ring: semiring.SpMV()}
	if cfg.HW == sim.SC || cfg.HW == sim.SCS {
		// Both SC and SCS traverse the vblocked layout sized to the SCS
		// scratchpad (§III-B: blocking "can still be beneficial" for SC).
		vb := sim.Config{Geometry: cfg.Geometry, HW: sim.SCS, Params: cfg.Params}.SPMWordsPerTile()
		part := kernels.NewIPPartition(coo, cfg.Geometry.TotalPEs(), vb, kernels.BalanceNNZ)
		_, res := kernels.RunIPMulti(cfg, part, []matrix.Dense{f.ToDense(0)}, []kernels.Operand{op})
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
	return sweep(s, "Fig. 4 — Speedup of OP (PC) vs IP (SC)",
		"value = cycles(IP on SC) / cycles(OP on PC); >1 means OP faster",
		fig4Systems, 401, f2, func(cycles func(sim.HWConfig) int64) float64 {
			return float64(cycles(sim.SC)) / float64(cycles(sim.PC))
		})
}

// Fig5 reproduces "Speedup of SCS vs SC for IP": the gain from staging
// the frontier vblock in the shared scratchpad, growing with vector
// density and scratchpad reuse.
func Fig5(s Scale) (*SweepResult, *Table) {
	return sweep(s, "Fig. 5 — Speedup of SCS vs SC (IP)",
		"value = cycles(SC)/cycles(SCS) − 1; positive means SCS faster",
		fig56Systems, 501, pct, func(cycles func(sim.HWConfig) int64) float64 {
			return float64(cycles(sim.SC))/float64(cycles(sim.SCS)) - 1
		})
}

// Fig6 reproduces "Speedup of PS vs PC for OP": the gain from holding
// the merge heap in the private scratchpad, growing with vector density
// and tile count, shrinking with PEs per tile.
func Fig6(s Scale) (*SweepResult, *Table) {
	return sweep(s, "Fig. 6 — Speedup of PS vs PC (OP)",
		"value = cycles(PC)/cycles(PS) − 1; positive means PS faster",
		fig56Systems, 601, pct, func(cycles func(sim.HWConfig) int64) float64 {
			return float64(cycles(sim.PC))/float64(cycles(sim.PS)) - 1
		})
}

// sweep runs one Fig. 4–6 grid: uniform matrices generated from seed,
// frontiers from seed+1, and per (matrix, system, density) cell the
// figure's value, computed by cell from the cycles of one SpMV under
// each hardware mode it asks for and printed with format.
func sweep(s Scale, title, note string, systems []sim.Geometry, seed uint64, format func(float64) string,
	cell func(cycles func(sim.HWConfig) int64) float64) (*SweepResult, *Table) {
	par := s.Params()
	res := &SweepResult{
		Matrices:  sweepMatrices(s),
		Systems:   systems,
		Densities: vecDensities,
		Value:     map[CellKey]float64{},
	}
	tbl := &Table{
		Title:  title,
		Header: append([]string{"matrix", "system"}, densHeader()...),
		Notes:  []string{"scale: " + s.String(), note},
	}
	coos := make([]*matrix.COO, len(res.Matrices))
	parallelCells(len(res.Matrices), func(mi int) {
		coos[mi] = gen.Uniform(res.Matrices[mi].N, res.Matrices[mi].NNZ, gen.Pattern, seed)
	})
	nG, nD := len(res.Systems), len(res.Densities)
	vals := make([]float64, len(res.Matrices)*nG*nD)
	parallelCells(len(vals), func(i int) {
		mi, rest := i/(nG*nD), i%(nG*nD)
		gi, di := rest/nD, rest%nD
		g, d := res.Systems[gi], res.Densities[di]
		f := gen.Frontier(res.Matrices[mi].N, d, seed+1)
		vals[i] = cell(func(hw sim.HWConfig) int64 {
			return spmvCycles(sim.Config{Geometry: g, HW: hw, Params: par}, coos[mi], f)
		})
	})
	for mi, mspec := range res.Matrices {
		for gi, g := range res.Systems {
			row := []string{mspec.Name, g.String()}
			for di, d := range res.Densities {
				v := vals[mi*nG*nD+gi*nD+di]
				res.Value[CellKey{mspec.Name, g.String(), d}] = v
				row = append(row, format(v))
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
