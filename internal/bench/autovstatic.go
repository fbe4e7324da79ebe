package bench

import (
	"fmt"

	"cosparse/internal/gen"
	"cosparse/internal/runtime"
)

// AutoVsStaticResult quantifies the paper's headline claim (§IV-C2):
// synergistic software+hardware reconfiguration achieves up to 2.0×
// over the naive no-reconfiguration baseline across algorithms and
// graphs.
type AutoVsStaticResult struct {
	Rows []AutoVsStaticRow
	// MaxSpeedup is the largest auto-vs-IP/SC speedup observed.
	MaxSpeedup float64
}

// AutoVsStaticRow is one (algorithm, graph) cell.
type AutoVsStaticRow struct {
	Algo, Graph string
	AutoCycles  int64
	// Static holds total cycles per pinned configuration, keyed by the
	// Fig. 9 names.
	Static map[string]int64
}

// SpeedupVsIPSC is the paper's baseline comparison (no reconfiguration).
func (r AutoVsStaticRow) SpeedupVsIPSC() float64 {
	return float64(r.Static["IP/SC"]) / float64(r.AutoCycles)
}

// SpeedupVsBest compares auto against the best static configuration —
// an oracle no fixed design can beat.
func (r AutoVsStaticRow) SpeedupVsBest() float64 {
	best := int64(0)
	for _, c := range r.Static {
		if best == 0 || c < best {
			best = c
		}
	}
	return float64(best) / float64(r.AutoCycles)
}

var avsConfigs = []struct {
	Name string
	SW   runtime.SWChoice
	HW   runtime.HWChoice
}{
	{"IP/SC", runtime.ForceIP, runtime.ForceSC},
	{"IP/SCS", runtime.ForceIP, runtime.ForceSCS},
	{"OP/PC", runtime.ForceOP, runtime.ForcePC},
	{"OP/PS", runtime.ForceOP, runtime.ForcePS},
}

// AutoVsStatic runs BFS and SSSP on two suite stand-ins under the auto
// policy and every static configuration.
func AutoVsStatic(s Scale) (*AutoVsStaticResult, *Table) {
	res := &AutoVsStaticResult{}
	tbl := &Table{
		Title:  "Reconfiguration benefit — auto vs static configurations (16x16)",
		Header: []string{"algo", "graph", "auto", "IP/SC", "IP/SCS", "OP/PC", "OP/PS", "speedup vs IP/SC", "vs best static"},
		Notes: []string{
			"scale: " + s.String(),
			"paper (§IV-C2): combined SW+HW reconfiguration achieves up to 2.0x over no reconfiguration",
		},
	}

	for _, graph := range []string{"twitter", "pokec"} {
		spec, err := gen.SpecByName(graph)
		if err != nil {
			panic(err)
		}
		factor := spec.ScaleForBudget(s.EdgeBudget() / 2)
		coo := spec.Build(factor, gen.UniformWeight, 1201)
		src := maxDegreeVertex(coo)

		for _, algo := range []string{"BFS", "SSSP"} {
			runOne := func(sw runtime.SWChoice, hw runtime.HWChoice) int64 {
				fw, err := runtime.NewFromStore(coo, runtime.Options{Geometry: fig8Geometry, SW: sw, HW: hw, Params: s.Params()})
				if err != nil {
					panic(err)
				}
				var reps []*runtime.Report
				var errs []error
				if algo == "BFS" {
					_, reps, errs = fw.BFSBatch(nil, []int32{src})
				} else {
					_, reps, errs = fw.SSSPBatch(nil, []int32{src})
				}
				if errs[0] != nil {
					panic(errs[0])
				}
				return reps[0].TotalCycles
			}

			row := AutoVsStaticRow{Algo: algo, Graph: graph, Static: map[string]int64{}}
			row.AutoCycles = runOne(runtime.AutoSW, runtime.AutoHW)
			cells := []string{algo, graph, fmt.Sprintf("%d", row.AutoCycles)}
			for _, c := range avsConfigs {
				row.Static[c.Name] = runOne(c.SW, c.HW)
				cells = append(cells, fmt.Sprintf("%d", row.Static[c.Name]))
			}
			if sp := row.SpeedupVsIPSC(); sp > res.MaxSpeedup {
				res.MaxSpeedup = sp
			}
			cells = append(cells, f2(row.SpeedupVsIPSC()), f2(row.SpeedupVsBest()))
			res.Rows = append(res.Rows, row)
			tbl.AddRow(cells...)
		}
	}
	tbl.Notes = append(tbl.Notes, fmt.Sprintf("max speedup vs IP/SC: %.2fx", res.MaxSpeedup))
	return res, tbl
}
