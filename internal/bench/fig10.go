package bench

import (
	"errors"
	"fmt"
	"math"

	"cosparse/internal/gen"
	"cosparse/internal/ligra"
	"cosparse/internal/runtime"
)

// fig10Workloads lists the (algorithm, graph) pairs of Fig. 10: PR and
// CF run on all five graphs, BFS and SSSP on the four the paper shows.
var fig10Workloads = []struct {
	Algo   string
	Graphs []string
}{
	{"PR", []string{"vsp", "twitter", "youtube", "pokec", "livejournal"}},
	{"CF", []string{"vsp", "twitter", "youtube", "pokec", "livejournal"}},
	{"BFS", []string{"vsp", "twitter", "youtube", "pokec"}},
	{"SSSP", []string{"vsp", "twitter", "youtube", "pokec"}},
}

const (
	fig10PRIters = 10
	fig10CFIters = 10
	fig10Alpha   = 0.15
	fig10Beta    = 0.05
	fig10Lambda  = 0.01
)

// Fig10Point compares CoSPARSE with Ligra-on-Xeon for one workload.
type Fig10Point struct {
	Algo, Graph string
	CoSPARSEsec float64
	LigraSec    float64
	CoSPARSEJ   float64
	LigraJ      float64
}

// Speedup is Ligra time / CoSPARSE time.
func (p Fig10Point) Speedup() float64 { return p.LigraSec / p.CoSPARSEsec }

// EnergyGain is Ligra energy / CoSPARSE energy.
func (p Fig10Point) EnergyGain() float64 { return p.LigraJ / p.CoSPARSEJ }

// Fig10Result holds all workloads plus the geomeans the figure reports.
type Fig10Result struct {
	Points            []Fig10Point
	GeomeanSpeedup    float64
	GeomeanEnergyGain float64
	Scales            map[string]int
}

// Fig10 reproduces the graph-analytics comparison against Ligra on the
// Xeon model: PR, CF, BFS and SSSP over the Table III stand-ins, with
// CoSPARSE auto-reconfiguring on a 16×16 system.
func Fig10(s Scale) (*Fig10Result, *Table) {
	res := &Fig10Result{Scales: map[string]int{}}
	tbl := &Table{
		Title:  "Fig. 10 — Speedup and energy-efficiency gain of CoSPARSE (16x16) over Ligra (Xeon model)",
		Header: []string{"algo", "graph", "CoSPARSE(s)", "Ligra(s)", "speedup", "energy gain"},
		Notes:  []string{"scale: " + s.String()},
	}
	xeon := ligra.DefaultXeon()

	for _, wl := range fig10Workloads {
		for _, name := range wl.Graphs {
			spec, err := gen.SpecByName(name)
			if err != nil {
				panic(err)
			}
			factor := spec.ScaleForBudget(s.EdgeBudget())
			res.Scales[name] = factor
			coo := spec.Build(factor, gen.UniformWeight, 1001)
			src := maxDegreeVertex(coo)

			fw, err := runtime.NewFromStore(coo, runtime.Options{Geometry: fig8Geometry, Params: s.Params()})
			if err != nil {
				panic(err)
			}
			lg := ligra.NewGraph(coo)

			var reps []*runtime.Report
			var errs []error
			var lres *ligra.Result
			switch wl.Algo {
			case "PR":
				_, reps, errs = fw.PageRankBatch(nil, 1, fig10PRIters, fig10Alpha)
				lres, err = ligra.PageRank(lg, fig10PRIters, fig10Alpha, xeon)
			case "CF":
				_, reps, errs = fw.CFBatch(nil, 1, fig10CFIters, fig10Beta, fig10Lambda)
				lres, err = ligra.CF(lg, fig10CFIters, fig10Beta, fig10Lambda, xeon)
			case "BFS":
				_, reps, errs = fw.BFSBatch(nil, []int32{src})
				lres, err = ligra.BFS(lg, src, xeon)
			case "SSSP":
				_, reps, errs = fw.SSSPBatch(nil, []int32{src})
				lres, err = ligra.SSSP(lg, src, xeon)
			}
			rep := reps[0]
			if err = errors.Join(errs[0], err); err != nil {
				panic(fmt.Sprintf("bench: Fig10 %s/%s: %v", wl.Algo, name, err))
			}
			pt := Fig10Point{
				Algo: wl.Algo, Graph: name,
				CoSPARSEsec: rep.Seconds(), LigraSec: lres.Seconds,
				CoSPARSEJ: rep.EnergyJ, LigraJ: lres.Joules,
			}
			res.Points = append(res.Points, pt)
			tbl.AddRow(wl.Algo, name,
				fmt.Sprintf("%.4g", pt.CoSPARSEsec), fmt.Sprintf("%.4g", pt.LigraSec),
				f2(pt.Speedup()), fmt.Sprintf("%.0f", pt.EnergyGain()))
		}
	}

	var ls, le float64
	for _, p := range res.Points {
		ls += math.Log(p.Speedup())
		le += math.Log(p.EnergyGain())
	}
	n := float64(len(res.Points))
	res.GeomeanSpeedup = math.Exp(ls / n)
	res.GeomeanEnergyGain = math.Exp(le / n)
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("geomean speedup %.2fx (paper avg 1.5x, max 3.5x); geomean energy gain %.0fx (paper avg 404x, max ~877x)",
			res.GeomeanSpeedup, res.GeomeanEnergyGain))
	return res, tbl
}
