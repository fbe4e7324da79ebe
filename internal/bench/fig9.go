package bench

import (
	"fmt"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
)

// fig9Configs are the five static configurations evaluated per
// iteration in Fig. 9 (including the off-diagonal OP-on-SC column the
// paper reports).
var fig9Configs = []struct {
	Name string
	SW   runtime.SWChoice
	HW   runtime.HWChoice
}{
	{"IP/SC", runtime.ForceIP, runtime.ForceSC},
	{"IP/SCS", runtime.ForceIP, runtime.ForceSCS},
	{"OP/SC", runtime.ForceOP, runtime.ForceSC},
	{"OP/PC", runtime.ForceOP, runtime.ForcePC},
	{"OP/PS", runtime.ForceOP, runtime.ForcePS},
}

// Fig9Row is one iteration of the SSSP-on-pokec case study.
type Fig9Row struct {
	Iter       int
	Density    float64
	Normalized map[string]float64 // per config, normalized to IP/SC
	Best       string             // argmin of Normalized
	AutoChoice string             // what the CoSPARSE runtime picked
}

// Fig9Result is the full case study.
type Fig9Result struct {
	Rows []Fig9Row
	// NetSpeedup is total IP/SC cycles over total auto-reconfigured
	// cycles (the paper reports 1.51×).
	NetSpeedup float64
	ScaleUsed  int
}

// Fig9 reproduces the per-iteration SSSP case study on the pokec
// stand-in at 16×16: the same frontier trace evaluated under five
// static configurations plus the auto-reconfiguring runtime.
func Fig9(s Scale) (*Fig9Result, *Table) {
	spec, err := gen.SpecByName("pokec")
	if err != nil {
		panic(err)
	}
	factor := spec.ScaleForBudget(s.EdgeBudget())
	coo := spec.Build(factor, gen.UniformWeight, 901)
	src := maxDegreeVertex(coo)

	runOne := func(sw runtime.SWChoice, hw runtime.HWChoice) *runtime.Report {
		fw, err := runtime.NewFromStore(coo, runtime.Options{Geometry: fig8Geometry, SW: sw, HW: hw, Params: s.Params()})
		if err != nil {
			panic(err)
		}
		_, reps, errs := fw.SSSPBatch(nil, []int32{src})
		if errs[0] != nil {
			panic(errs[0])
		}
		return reps[0]
	}

	reports := make(map[string]*runtime.Report, len(fig9Configs))
	repSlice := make([]*runtime.Report, len(fig9Configs)+1)
	parallelCells(len(fig9Configs)+1, func(i int) {
		if i == len(fig9Configs) {
			repSlice[i] = runOne(runtime.AutoSW, runtime.AutoHW)
			return
		}
		repSlice[i] = runOne(fig9Configs[i].SW, fig9Configs[i].HW)
	})
	for i, c := range fig9Configs {
		reports[c.Name] = repSlice[i]
	}
	auto := repSlice[len(fig9Configs)]
	base := reports["IP/SC"]

	res := &Fig9Result{ScaleUsed: factor}
	iters := len(base.Iters)
	for _, rep := range reports {
		if len(rep.Iters) != iters {
			panic("bench: Fig9 iteration counts diverged between configs")
		}
	}
	tbl := &Table{
		Title:  "Fig. 9 — SSSP on pokec (16x16): per-iteration normalized execution time",
		Header: []string{"iter", "density", "IP/SC", "IP/SCS", "OP/SC", "OP/PC", "OP/PS", "best", "auto"},
		Notes: []string{
			"scale: " + s.String() + fmt.Sprintf(" (pokec stand-in 1/%d)", factor),
			"times normalized to IP/SC per iteration; * marks the per-iteration minimum",
		},
	}
	for i := 0; i < iters; i++ {
		row := Fig9Row{
			Iter:       i,
			Density:    base.Iters[i].Density,
			Normalized: map[string]float64{},
		}
		bestV := 0.0
		for _, c := range fig9Configs {
			v := float64(reports[c.Name].Iters[i].TotalCycles) / float64(base.Iters[i].TotalCycles)
			row.Normalized[c.Name] = v
			if row.Best == "" || v < bestV {
				row.Best, bestV = c.Name, v
			}
		}
		if i < len(auto.Iters) {
			row.AutoChoice = auto.Iters[i].Decision.String()
		}
		res.Rows = append(res.Rows, row)
		cells := []string{fmt.Sprintf("%d", i), fmt.Sprintf("%.2f%%", 100*row.Density)}
		for _, c := range fig9Configs {
			mark := ""
			if c.Name == row.Best {
				mark = "*"
			}
			cells = append(cells, f3(row.Normalized[c.Name])+mark)
		}
		cells = append(cells, row.Best, row.AutoChoice)
		tbl.AddRow(cells...)
	}
	res.NetSpeedup = float64(base.TotalCycles) / float64(auto.TotalCycles)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("net speedup of auto reconfiguration over IP/SC-only: %.2fx (paper: 1.51x)", res.NetSpeedup))
	return res, tbl
}

// maxDegreeVertex picks the vertex with the highest out-degree — a
// source that produces a full traversal, like the paper's case study.
func maxDegreeVertex(m *matrix.COO) int32 {
	deg := m.OutDegrees()
	best := int32(0)
	for i, d := range deg {
		if d > deg[best] {
			best = int32(i)
		}
	}
	return best
}
