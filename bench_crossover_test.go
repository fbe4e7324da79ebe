package cosparse

// The native min-ring crossover fit (part of `make bench-backends`):
// whole traversal jobs — BFS from a source on a pattern graph, then
// SSSP from it on the weighted twin — timed on the native backend at
// each candidate Policy.NativeMinCrossover, on the benchmark's graph
// and two Table III stand-ins. The candidates run interleaved within
// each repetition so host drift lands on all of them alike. Results go
// into BENCH_backends.json under "native_min_crossover_fit"; the
// chosen constant lives in runtime.DefaultPolicy.

import (
	"encoding/json"
	"math"
	"os"
	goruntime "runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

// quartiles returns the first quartile, median and third quartile of
// xs (linear interpolation between order statistics).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

// writeBenchJSON sets the given top-level keys of a BENCH_*.json file,
// keeping every other key it already holds.
func writeBenchJSON(t *testing.T, path string, fields any) {
	t.Helper()
	doc := map[string]json.RawMessage{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	buf, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	var add map[string]json.RawMessage
	if err := json.Unmarshal(buf, &add); err != nil {
		t.Fatal(err)
	}
	for k, v := range add {
		doc[k] = v
	}
	if buf, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBenchCrossoverFit(t *testing.T) {
	if os.Getenv("BENCH_BACKENDS") == "" {
		t.Skip("set BENCH_BACKENDS=1 to run the native min-ring crossover fit")
	}
	const reps, nSources = 5, 4
	crossovers := []float64{0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	geom := sim.Geometry{Tiles: 16, PEsPerTile: 16}
	procs := goruntime.GOMAXPROCS(goruntime.NumCPU())
	defer goruntime.GOMAXPROCS(procs)

	type graph struct {
		name             string
		pattern, weights *matrix.COO
	}
	suite := func(name string) graph {
		spec, err := gen.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale := spec.ScaleForBudget(1 << 20)
		return graph{name, spec.Build(scale, gen.Pattern, 42), spec.Build(scale, gen.UniformWeight, 42)}
	}
	graphs := []graph{
		{"powerlaw-65536x1M", gen.PowerLaw(65536, 1<<20, 0.55, gen.Pattern, 42), gen.PowerLaw(65536, 1<<20, 0.55, gen.UniformWeight, 42)},
		suite("pokec"),
		suite("vsp"),
	}

	type point struct {
		Crossover float64 `json:"crossover"`
		MedianMs  float64 `json:"job_ms_median"`
		Q1Ms      float64 `json:"job_ms_q1"`
		Q3Ms      float64 `json:"job_ms_q3"`
		IQRMs     float64 `json:"job_ms_iqr"`
		Samples   int     `json:"samples"`
	}
	type graphFit struct {
		Graph    string  `json:"graph"`
		Vertices int     `json:"vertices"`
		Edges    int     `json:"edges"`
		Best     float64 `json:"best_crossover"`
		Points   []point `json:"points"`
	}
	var fits []graphFit
	for _, g := range graphs {
		// The highest-out-degree sources, as the benchmark's traversal
		// workload draws them.
		deg := g.pattern.OutDegrees()
		order := make([]int32, len(deg))
		for v := range order {
			order[v] = int32(v)
		}
		slices.SortStableFunc(order, func(a, b int32) int { return int(deg[b] - deg[a]) })
		sources := order[:nSources]

		engines := make([][2]*runtime.Framework, len(crossovers))
		for i, c := range crossovers {
			pol := runtime.DefaultPolicy()
			pol.NativeMinCrossover = c
			opts := runtime.Options{Geometry: geom, Backend: exec.Native(), Policy: pol}
			for j, m := range []*matrix.COO{g.pattern, g.weights} {
				f, err := runtime.New(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				engines[i][j] = f
			}
		}
		job := func(i int, src int32) time.Duration {
			t0 := time.Now()
			if _, _, err := engines[i][0].BFS(src); err != nil {
				t.Fatal(err)
			}
			if _, _, err := engines[i][1].SSSP(src); err != nil {
				t.Fatal(err)
			}
			return time.Since(t0)
		}
		for i := range crossovers { // warm: partitions materialised
			job(i, sources[0])
		}
		samples := make([][]float64, len(crossovers))
		for r := 0; r < reps; r++ {
			for k := range crossovers {
				i := (k + r) % len(crossovers)
				for _, src := range sources {
					samples[i] = append(samples[i], float64(job(i, src).Microseconds())/1e3)
				}
			}
		}
		fit := graphFit{Graph: g.name, Vertices: g.pattern.R, Edges: g.pattern.NNZ()}
		best := math.Inf(1)
		for i, c := range crossovers {
			q1, med, q3 := quartiles(samples[i])
			fit.Points = append(fit.Points, point{c, med, q1, q3, q3 - q1, len(samples[i])})
			if med < best {
				best, fit.Best = med, c
			}
			t.Logf("%s crossover %.2f: job %.1f ms (IQR %.1f)", g.name, c, med, q3-q1)
		}
		fits = append(fits, fit)
	}

	writeBenchJSON(t, "BENCH_backends.json", map[string]any{
		"native_min_crossover_fit": map[string]any{
			"job":          "BFS(s) on the pattern graph then SSSP(s) on its weighted twin, native backend",
			"geometry":     "16x16",
			"sources":      nSources,
			"reps":         reps,
			"chosen":       runtime.DefaultPolicy().NativeMinCrossover,
			"graphs":       fits,
			"num_cpu":      goruntime.NumCPU(),
			"gomaxprocs":   goruntime.GOMAXPROCS(0),
			"go_version":   goruntime.Version(),
			"commit":       headCommit(),
			"measured_utc": time.Now().UTC().Format(time.RFC3339),
		},
	})
}
