package bench

import (
	"context"
	"fmt"
	"math"

	"cosparse/internal/baseline"
	"cosparse/internal/gen"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

// fig8Geometry is the system of Figs. 8–10.
var fig8Geometry = sim.Geometry{Tiles: 16, PEsPerTile: 16}

// fig8Densities sweeps the input-vector density like Fig. 8's x-axis.
var fig8Densities = []float64{0.001, 0.01, 0.1, 1.0}

// fig8Graphs is the Fig. 8 subset of Table III.
var fig8Graphs = []string{"vsp", "twitter", "youtube", "pokec"}

// Fig8Point is one bar pair of Fig. 8.
type Fig8Point struct {
	Graph       string
	Density     float64
	CoSPARSEsec float64
	CPUsec      float64
	GPUsec      float64
	CoSPARSEJ   float64
	CPUJ        float64
	GPUJ        float64
	UsedIP      bool
}

// SpeedupCPU returns CPU time / CoSPARSE time.
func (p Fig8Point) SpeedupCPU() float64 { return p.CPUsec / p.CoSPARSEsec }

// SpeedupGPU returns GPU time / CoSPARSE time.
func (p Fig8Point) SpeedupGPU() float64 { return p.GPUsec / p.CoSPARSEsec }

// EnergyGainCPU returns CPU energy / CoSPARSE energy.
func (p Fig8Point) EnergyGainCPU() float64 { return p.CPUJ / p.CoSPARSEJ }

// EnergyGainGPU returns GPU energy / CoSPARSE energy.
func (p Fig8Point) EnergyGainGPU() float64 { return p.GPUJ / p.CoSPARSEJ }

// Fig8Result holds the sweep plus the headline averages the paper
// quotes (4.5×/17.3× speedup, 282.5×/730.6× energy efficiency).
type Fig8Result struct {
	Points []Fig8Point
	Scales map[string]int // downscale factor per graph stand-in
}

// Averages returns geometric means of the speedups and energy gains.
func (r *Fig8Result) Averages() (spCPU, spGPU, enCPU, enGPU float64) {
	if len(r.Points) == 0 {
		return
	}
	gm := func(f func(Fig8Point) float64) float64 {
		sum := 0.0
		for _, p := range r.Points {
			sum += math.Log(f(p))
		}
		return math.Exp(sum / float64(len(r.Points)))
	}
	return gm(Fig8Point.SpeedupCPU), gm(Fig8Point.SpeedupGPU),
		gm(Fig8Point.EnergyGainCPU), gm(Fig8Point.EnergyGainGPU)
}

// Fig8 reproduces the SpMV comparison against the CPU (i7-6700K + MKL)
// and GPU (V100 + cuSPARSE) models on the Table III stand-ins at 16×16,
// sweeping the vector density from 0.001 to 1.0.
func Fig8(s Scale) (*Fig8Result, *Table) {
	res := &Fig8Result{Scales: map[string]int{}}
	tbl := &Table{
		Title:  "Fig. 8 — SpMV speedup and energy-efficiency gain of CoSPARSE (16x16) over CPU and GPU",
		Header: []string{"graph", "density", "SW", "speedup/CPU", "speedup/GPU", "energy/CPU", "energy/GPU"},
		Notes:  []string{"scale: " + s.String()},
	}
	cpu := baseline.DefaultCPU()
	gpu := baseline.DefaultGPU()

	for _, name := range fig8Graphs {
		spec, err := gen.SpecByName(name)
		if err != nil {
			panic(err)
		}
		factor := spec.ScaleForBudget(s.EdgeBudget())
		res.Scales[name] = factor
		coo := spec.Build(factor, gen.UniformWeight, 801)
		fw, err := runtime.NewFromStore(coo, runtime.Options{Geometry: fig8Geometry, Params: s.Params()})
		if err != nil {
			panic(err)
		}
		work := baseline.WorkOf(coo.ToCSR())

		for _, d := range fig8Densities {
			f := gen.Frontier(coo.C, d, 802)
			_, rep, err := fw.SpMV(context.Background(), f)
			if err != nil {
				panic(err)
			}
			pt := Fig8Point{
				Graph:       name,
				Density:     d,
				CoSPARSEsec: rep.Seconds(),
				CPUsec:      cpu.Time(work),
				GPUsec:      gpu.Time(work),
				CoSPARSEJ:   rep.EnergyJ,
				CPUJ:        cpu.Energy(work),
				GPUJ:        gpu.Energy(work),
				UsedIP:      rep.Iters[0].Decision.UseIP,
			}
			res.Points = append(res.Points, pt)
			sw := "OP"
			if pt.UsedIP {
				sw = "IP"
			}
			tbl.AddRow(name, fmt.Sprintf("%g", d), sw,
				f2(pt.SpeedupCPU()), f2(pt.SpeedupGPU()),
				f2(pt.EnergyGainCPU()), f2(pt.EnergyGainGPU()))
		}
	}
	spC, spG, enC, enG := res.Averages()
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("averages: speedup %.1fx (CPU) %.1fx (GPU); energy %.1fx (CPU) %.1fx (GPU); paper: 4.5x/17.3x and 282.5x/730.6x",
			spC, spG, enC, enG))
	for _, name := range fig8Graphs {
		tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s stand-in downscale: 1/%d", name, res.Scales[name]))
	}
	return res, tbl
}
