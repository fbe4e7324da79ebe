package kernels

// Layer benchmarks for the native backend's kernels (`make
// bench-kernels`): one IP pass per Table I row, the closure fallback,
// eight fused lanes, a density sweep of both dataflows for the min
// rings, and the dense merge, all on the scale-16 power-law graph the
// backend comparison uses, reported per edge (or per vertex).

import (
	"fmt"
	"strings"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

type benchGraph struct {
	m    *matrix.COO
	part *IPPartition
	prev matrix.Dense
}

func newBenchGraph(b *testing.B) benchGraph {
	b.Helper()
	const n = 1 << 16
	m := gen.PowerLaw(n, 16*n, 0.55, gen.UniformWeight, 16)
	c := cfg(16, 16, sim.SCS)
	part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
	part.Materialize()
	prev := make(matrix.Dense, n)
	for i := range prev {
		prev[i] = float32(i%7) + 1
	}
	return benchGraph{m, part, prev}
}

// frontier is the IP input for ring: every vertex for the
// dense-frontier rows, every other vertex active for the rest.
func (g benchGraph) frontier(ring semiring.Semiring) matrix.Dense {
	x := make(matrix.Dense, g.m.C)
	for i := range x {
		x[i] = 1 / float32(i+1)
		if !ring.DenseFrontier && i%2 == 1 {
			x[i] = ring.Identity
		}
	}
	return x
}

func BenchmarkNativeIP(b *testing.B) {
	g := newBenchGraph(b)
	custom := semiring.PR()
	custom.Kind = semiring.KindCustom // PR through the closure loop
	for _, bc := range []struct {
		name string
		ring semiring.Semiring
	}{
		{"spmv", semiring.SpMV()}, {"bfs", semiring.BFS()}, {"sssp", semiring.SSSP()},
		{"pr", semiring.PR()}, {"cf", semiring.CF()}, {"custom", custom},
	} {
		b.Run(bc.name, func(b *testing.B) {
			op := opFor(bc.ring, g.m, g.prev)
			op.Scratch = new(Scratch)
			xs, ops := []matrix.Dense{g.frontier(bc.ring)}, []Operand{op}
			NativeIPMulti(g.part, xs, ops)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NativeIPMulti(g.part, xs, ops)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.m.NNZ()), "ns/edge")
		})
	}
}

func BenchmarkNativeIPMulti8(b *testing.B) {
	g := newBenchGraph(b)
	const lanes = 8
	xs := make([]matrix.Dense, lanes)
	ops := make([]Operand, lanes)
	for l := range xs {
		seed := int32(l * g.m.C / lanes)
		xs[l] = make(matrix.Dense, g.m.C)
		xs[l][seed] = 1
		ops[l] = opFor(semiring.PPR(), g.m, nil)
		ops[l].Ctx.Seed = seed
		ops[l].Scratch = new(Scratch)
	}
	NativeIPMulti(g.part, xs, ops)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NativeIPMulti(g.part, xs, ops)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.m.NNZ())/lanes, "ns/edge/lane")
}

// BenchmarkNativeTraverse sweeps frontier density for the two min
// rings through both dataflows: the pull reports ns per stored edge
// (it sweeps every one), the push ns per edge of the active columns
// (all it touches), and ns/op is the call either way — where the two
// ns/op curves cross is the dataflow crossover the runtime's
// NativeMinCrossover is fitted to on whole jobs.
func BenchmarkNativeTraverse(b *testing.B) {
	g := newBenchGraph(b)
	const tiles, pesPerTile = 16, 16
	op := NewOPPartition(g.m, tiles, BalanceNNZ)
	op.Materialize()
	deg := g.m.OutDegrees()
	for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
		for _, density := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9} {
			f := gen.Frontier(g.m.C, density, 17)
			for k, i := range f.Idx {
				f.Val[k] = float32(i%13) * 0.25
			}
			active := 0
			for _, v := range f.Idx {
				active += int(deg[v])
			}
			operand := opFor(ring, g.m, g.prev)
			operand.Scratch = new(Scratch)
			name := fmt.Sprintf("%s/%g%%", strings.ToLower(ring.Name), 100*density)
			b.Run(name+"/pull", func(b *testing.B) {
				xs, ops := []matrix.Dense{f.ToDense(ring.Identity)}, []Operand{operand}
				NativeIPMulti(g.part, xs, ops)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NativeIPMulti(g.part, xs, ops)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.m.NNZ()), "ns/edge")
			})
			b.Run(name+"/push", func(b *testing.B) {
				fs, ops := []*matrix.SparseVec{f}, []Operand{operand}
				NativeOPMulti(op, fs, ops, pesPerTile)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					NativeOPMulti(op, fs, ops, pesPerTile)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(max(active, 1)), "ns/edge")
			})
		}
	}
}

func BenchmarkNativeMergeDense(b *testing.B) {
	g := newBenchGraph(b)
	op := opFor(semiring.PR(), g.m, nil)
	x := g.frontier(op.Ring)
	contrib := NativeIPMulti(g.part, []matrix.Dense{x}, []Operand{op})[0]
	vals := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The merge updates vals in place; PR's Vector_Op does not read
		// the old value, so every repetition does the same work.
		NativeMergeDense(contrib, vals, op)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/vertex")
}
