package kernels

// Layer benchmarks for the native backend's pull side (`make
// bench-kernels`): one IP pass per Table I row, the closure fallback,
// eight fused lanes, and the dense merge, all on the scale-16 power-law
// graph the backend comparison uses, reported per edge (or per vertex).

import (
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
