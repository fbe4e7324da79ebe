// Benchmarks regenerating every table and figure of the paper (at
// ScaleTiny so `go test -bench=.` completes in minutes; run
// `cmd/experiments -scale small` or `-scale full` for the committed
// numbers), plus micro-benchmarks of the load-bearing components.
package cosparse

import (
	goruntime "runtime"
	"slices"
	"testing"

	"cosparse/internal/bench"
	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/ligra"
	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// ---- one benchmark per table/figure ----

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.TableI()
	}
}

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.TableII()
	}
}

func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.TableIII(bench.ScaleTiny)
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig4(bench.ScaleTiny)
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig5(bench.ScaleTiny)
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig6(bench.ScaleTiny)
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig7(bench.ScaleTiny)
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig8(bench.ScaleTiny)
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig9(bench.ScaleTiny)
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _ = bench.Fig10(bench.ScaleTiny)
	}
}

// ---- kernel micro-benchmarks (simulated-cycle cost is the figure of
// merit; these measure host throughput of the simulator itself) ----

func benchMatrix() *matrix.COO {
	return gen.Uniform(16384, 62500, gen.Pattern, 42)
}

func BenchmarkSimIPKernel(b *testing.B) {
	coo := benchMatrix()
	g := sim.Geometry{Tiles: 4, PEsPerTile: 8}
	cfg := sim.NewConfig(g, sim.SC)
	part := kernels.NewIPPartition(coo, g.TotalPEs(), 0, kernels.BalanceNNZ)
	x := []matrix.Dense{gen.Frontier(coo.C, 0.5, 7).ToDense(0)}
	op := []kernels.Operand{{Ring: semiring.SpMV()}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := kernels.RunIPMulti(cfg, part, x, op)
		if res.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
	b.ReportMetric(float64(coo.NNZ()), "nnz/op")
}

func BenchmarkSimOPKernel(b *testing.B) {
	coo := benchMatrix()
	g := sim.Geometry{Tiles: 4, PEsPerTile: 8}
	cfg := sim.NewConfig(g, sim.PS)
	part := kernels.NewOPPartition(coo, g.Tiles, kernels.BalanceNNZ)
	f := gen.Frontier(coo.C, 0.02, 9)
	op := kernels.Operand{Ring: semiring.SpMV()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := kernels.RunOP(cfg, part, f, op)
		if res.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

// BenchmarkSimPaperJob is the simulator's host speed on the paper
// machine (16×16): BFS from the top out-degree vertex then
// PageRank(2) on a 4096-vertex, 65536-edge power-law graph. ns/event
// is host time per simulated memory event (loads, stores and stream
// loads), the unit `sim.host_ns_per_event` reports.
func BenchmarkSimPaperJob(b *testing.B) {
	g, err := GeneratePowerLaw(4096, 65536, Unweighted, 42)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 16, PEsPerTile: 16})
	if err != nil {
		b.Fatal(err)
	}
	deg := make([]int32, g.NumVertices())
	var src int32
	for _, e := range g.Edges() {
		if deg[e.Src]++; deg[e.Src] > deg[src] || deg[e.Src] == deg[src] && e.Src < src {
			src = e.Src
		}
	}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rb, err := eng.BFS(src)
		if err != nil {
			b.Fatal(err)
		}
		_, rp, err := eng.PageRank(2, 0.15)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []*MemoryStats{rb.Memory, rp.Memory} {
			events += m.Loads + m.Stores + m.StreamLoads
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkIPPartitionBuild(b *testing.B) {
	coo := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.NewIPPartition(coo, 32, 2048, kernels.BalanceNNZ).Materialize()
	}
}

func BenchmarkOPPartitionBuild(b *testing.B) {
	coo := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.NewOPPartition(coo, 8, kernels.BalanceNNZ).Materialize()
	}
}

// BenchmarkEngineColdBuild is the engine-cache-miss path (`make
// bench-kernels`) on the scale-16 power-law graph, per resident format:
// pr+bfs is New, the first IP call and the first OP call; bfs-only is
// New and a BFS that runs only OP, so the engine needs its IP layout
// only to cut the OP tiles from. MB/op is everything the build
// allocates — partitions plus whatever scratch it burns.
func BenchmarkEngineColdBuild(b *testing.B) {
	const n = 1 << 16
	sys := System{Tiles: 16, PEsPerTile: 16}
	csr, err := GeneratePowerLaw(n, 16*n, Unweighted, 16)
	if err != nil {
		b.Fatal(err)
	}
	opOnly := opOnlyBFSSource(b, csr)
	for _, f := range []Format{CSRFormat, DVCSRFormat} {
		g, err := csr.InFormat(f)
		if err != nil {
			b.Fatal(err)
		}
		for _, leg := range []struct {
			name string
			run  func(*Engine) error
		}{
			{"pr+bfs", func(eng *Engine) error {
				if _, _, err := eng.PageRank(1, 0.15); err != nil { // dense frontier: IP
					return err
				}
				_, _, err := eng.BFS(0) // one-vertex frontier: OP first
				return err
			}},
			{"bfs-only", func(eng *Engine) error {
				_, _, err := eng.BFS(opOnly)
				return err
			}},
		} {
			b.Run(g.Format()+"/"+leg.name, func(b *testing.B) {
				var m0, m1 goruntime.MemStats
				goruntime.ReadMemStats(&m0)
				for i := 0; i < b.N; i++ {
					eng, err := New(g, sys, WithBackend(NativeBackend))
					if err != nil {
						b.Fatal(err)
					}
					if err := leg.run(eng); err != nil {
						b.Fatal(err)
					}
				}
				goruntime.ReadMemStats(&m1)
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
				b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N)/(1<<20), "MB/op")
			})
		}
	}
}

// opOnlyBFSSource returns the lowest-id vertex with no out-edges: its
// BFS is one iteration over a one-vertex frontier, which runs OP.
func opOnlyBFSSource(b *testing.B, g *Graph) int32 {
	b.Helper()
	if v := slices.Index(g.OutDegrees(), 0); v >= 0 {
		return int32(v)
	}
	b.Fatal("every vertex has an out-edge")
	return 0
}

func BenchmarkCOOToCSC(b *testing.B) {
	coo := benchMatrix()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coo.ToCSC()
	}
}

func BenchmarkSSSPFullRun(b *testing.B) {
	m := gen.PowerLaw(3000, 60000, 0.55, gen.UniformWeight, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fw, err := runtime.New(m, runtime.Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fw.SSSP(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLigraBFS(b *testing.B) {
	m := gen.PowerLaw(10000, 200000, 0.55, gen.Pattern, 13)
	g := ligra.NewGraph(m)
	x := ligra.DefaultXeon()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ligra.BFS(g, 0, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicAPIPageRank(b *testing.B) {
	g, err := GeneratePowerLaw(5000, 50000, Unweighted, 17)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 2, PEsPerTile: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.PageRank(3, 0.15); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- ablation benchmarks for the design choices DESIGN.md calls out ----

func ablationRun(b *testing.B, mutate func(*sim.Params)) int64 {
	coo := benchMatrix()
	g := sim.Geometry{Tiles: 4, PEsPerTile: 8}
	cfg := sim.NewConfig(g, sim.SC)
	mutate(&cfg.Params)
	part := kernels.NewIPPartition(coo, g.TotalPEs(), 0, kernels.BalanceNNZ)
	x := []matrix.Dense{gen.Frontier(coo.C, 0.5, 7).ToDense(0)}
	op := []kernels.Operand{{Ring: semiring.SpMV()}}
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := kernels.RunIPMulti(cfg, part, x, op)
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
	return cycles
}

func BenchmarkAblationBaselineIP(b *testing.B) {
	ablationRun(b, func(*sim.Params) {})
}

func BenchmarkAblationNoPrefetch(b *testing.B) {
	ablationRun(b, func(p *sim.Params) { p.PrefetchDegree = 0 })
}

func BenchmarkAblationNoStoreBuffer(b *testing.B) {
	ablationRun(b, func(p *sim.Params) { p.StoreBufDepth = 1 })
}

func BenchmarkAblationWideSchedulerWindow(b *testing.B) {
	// Coarser interleaving: faster host simulation, looser contention
	// modelling. The cycle deltas vs the baseline quantify the error.
	ablationRun(b, func(p *sim.Params) { p.SchedulerWindow = 1024 })
}

func BenchmarkAblationSlowHBM(b *testing.B) {
	ablationRun(b, func(p *sim.Params) { p.HBMBaseLatency = 300 })
}

func BenchmarkBetweenness(b *testing.B) {
	g, err := GeneratePowerLaw(2000, 20000, Unweighted, 31)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 2, PEsPerTile: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Betweenness(0); err != nil {
			b.Fatal(err)
		}
	}
}
