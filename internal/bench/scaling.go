package bench

import (
	"fmt"
	"math"

	"cosparse/internal/gen"
	"cosparse/internal/sim"
)

// ScalingResult quantifies §III-C3's tile-scaling claim: doubling the
// cores by going from 4×8 to 8×8 speeds OP up by 1.80× in PC mode and
// 1.96× in PS mode in the paper — PS scales better because more tiles
// mean shorter matrix columns, making the sorted-list management (which
// PS accelerates) a larger share of the work.
type ScalingResult struct {
	// SpeedupPC and SpeedupPS are geometric means over the sweep of
	// cycles(4×8)/cycles(8×8) for each mode.
	SpeedupPC, SpeedupPS float64
}

// ScalingStudy measures the 4×8 → 8×8 OP scaling on the Fig. 4–6
// matrix family across the vector-density sweep.
func ScalingStudy(s Scale) (*ScalingResult, *Table) {
	par := s.Params()
	small := sim.Geometry{Tiles: 4, PEsPerTile: 8}
	big := sim.Geometry{Tiles: 8, PEsPerTile: 8}

	tbl := &Table{
		Title:  "Tile scaling (§III-C3) — OP speedup from 4x8 to 8x8",
		Header: []string{"matrix", "density", "PC speedup", "PS speedup"},
		Notes: []string{
			"scale: " + s.String(),
			"paper: doubling cores gives PC 1.80x and PS 1.96x on average",
		},
	}

	var sumPC, sumPS float64
	n := 0
	for _, mspec := range sweepMatrices(s) {
		coo := gen.Uniform(mspec.N, mspec.NNZ, gen.Pattern, 1101)
		for _, d := range vecDensities {
			f := gen.Frontier(mspec.N, d, 1102)
			pcSmall := spmvCycles(sim.Config{Geometry: small, HW: sim.PC, Params: par}, coo, f, false)
			pcBig := spmvCycles(sim.Config{Geometry: big, HW: sim.PC, Params: par}, coo, f, false)
			psSmall := spmvCycles(sim.Config{Geometry: small, HW: sim.PS, Params: par}, coo, f, false)
			psBig := spmvCycles(sim.Config{Geometry: big, HW: sim.PS, Params: par}, coo, f, false)

			spPC := float64(pcSmall) / float64(pcBig)
			spPS := float64(psSmall) / float64(psBig)
			sumPC += math.Log(spPC)
			sumPS += math.Log(spPS)
			n++
			tbl.AddRow(mspec.Name, fmt.Sprintf("%g", d), f2(spPC), f2(spPS))
		}
	}
	res := &ScalingResult{
		SpeedupPC: math.Exp(sumPC / float64(n)),
		SpeedupPS: math.Exp(sumPS / float64(n)),
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("geomean: PC %.2fx, PS %.2fx", res.SpeedupPC, res.SpeedupPS))
	return res, tbl
}
