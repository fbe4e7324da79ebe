package kernels

// Layer benchmarks for the native backend's kernels (`make
// bench-kernels`): the IP layouts' builds, one IP pass per Table I
// row, the closure fallback, eight fused lanes, a density sweep of both
// dataflows for the min rings, the dense merge for PR and both min
// rings and SpMV's scatter merge, all on the scale-16 power-law graph
// the backend comparison uses (PR also on the scale-13 one-vblock
// graph, whose row runs are long), reported per edge (per vertex for
// the dense merge, per contribution element for the scatter merge, per
// build for the layouts).

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
	return benchGraphOf(1 << 16)
}

// benchGraphOf is the bench graph's generator at n vertices, 16 edges
// each, vblocked at the SCS width: 8 vblocks at 2^16 vertices, one at
// 8 192 (the svc-ppr-open shape, whose row runs are long).
func benchGraphOf(n int) benchGraph {
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
	long := benchGraphOf(1 << 13)
	for _, bc := range []struct {
		name string
		g    benchGraph
		ring semiring.Semiring
	}{
		{"spmv", g, semiring.SpMV()}, {"bfs", g, semiring.BFS()}, {"sssp", g, semiring.SSSP()},
		{"pr", g, semiring.PR()}, {"pr-longruns", long, semiring.PR()},
		{"cf", g, semiring.CF()}, {"custom", g, custom},
	} {
		g := bc.g
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

// BenchmarkNativeBuild times the native IP layouts' one-off cuts on a
// fresh partition of the bench graph each repetition: materialize (the
// store decoded into the vblock-bucketed IP arrays) and the PageRank
// pull's run buckets cut from those arrays (materialised outside the
// timer), in ms per build.
func BenchmarkNativeBuild(b *testing.B) {
	g := newBenchGraph(b)
	fresh := func() *IPPartition {
		return NewIPPartition(g.m, g.part.NumPEs, g.part.VBlockWords, BalanceNNZ)
	}
	b.Run("materialize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fresh().Materialize()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/build")
	})
	b.Run("buckets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			part := fresh()
			part.Materialize()
			b.StartTimer()
			part.buckets()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/build")
	})
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
// rings through both dataflows, each leg one whole iteration from the
// same value state (restored outside the timer): the pull is the IP
// pass plus NativeMergeDense and reports ns per stored edge (it sweeps
// every one), the push is NativePushMerge — push, merge and next
// frontier in one pass — and reports ns per edge of the active columns
// (all it touches). ns/op is the iteration either way, so where the
// two ns/op curves cross is the dataflow crossover the runtime's
// NativeMinCrossover is fitted to on whole jobs.
func BenchmarkNativeTraverse(b *testing.B) {
	g := newBenchGraph(b)
	const tiles, pesPerTile = 16, 16
	_, op := NewPartitions(g.m, tiles, pesPerTile, 0, BalanceNNZ)
	deg := g.m.OutDegrees()
	for _, ring := range []semiring.Semiring{semiring.BFS(), semiring.SSSP()} {
		start := g.minMergeState(ring)
		for _, density := range []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.9} {
			f := gen.Frontier(g.m.C, density, 17)
			for k, i := range f.Idx {
				f.Val[k] = float32(i%13) * 0.25
			}
			active := 0
			for _, v := range f.Idx {
				active += int(deg[v])
			}
			vals := start.Clone()
			operand := opFor(ring, g.m, vals)
			operand.Scratch = new(Scratch)
			name := fmt.Sprintf("%s/%g%%", strings.ToLower(ring.Name), 100*density)
			b.Run(name+"/pull", func(b *testing.B) {
				xs, ops := []matrix.Dense{f.ToDense(ring.Identity)}, []Operand{operand}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(vals, start)
					b.StartTimer()
					contrib := NativeIPMulti(g.part, xs, ops)[0]
					NativeMergeDense(contrib, vals, operand)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.m.NNZ()), "ns/edge")
			})
			b.Run(name+"/push", func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(vals, start)
					b.StartTimer()
					NativePushMerge(op, f, vals, operand)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(max(active, 1)), "ns/edge")
			})
		}
	}
}

// minMergeState is the value vector a min-ring merge starts from: for
// BFS every third vertex already set (OnceOnly keeps it), for SSSP the
// bench graph's finite destination state.
func (g benchGraph) minMergeState(ring semiring.Semiring) matrix.Dense {
	if ring.Kind == semiring.KindSSSP {
		return g.prev.Clone()
	}
	vals := make(matrix.Dense, g.m.R)
	for i := range vals {
		vals[i] = ring.Identity
		if i%3 == 0 {
			vals[i] = float32(i)
		}
	}
	return vals
}

// BenchmarkNativeMergeDense times the post-IP merge per vertex: PR,
// whose Vector_Op ignores the old value, and the two min rings, whose
// merge improves vals in place and so restarts from the same state
// (outside the timer) every repetition.
func BenchmarkNativeMergeDense(b *testing.B) {
	g := newBenchGraph(b)
	for _, ring := range []semiring.Semiring{semiring.PR(), semiring.BFS(), semiring.SSSP()} {
		b.Run(strings.ToLower(ring.Name), func(b *testing.B) {
			op := opFor(ring, g.m, g.prev)
			x := g.frontier(ring)
			contrib := NativeIPMulti(g.part, []matrix.Dense{x}, []Operand{op})[0]
			vals := x.Clone()
			var start matrix.Dense
			if ring.Kind != semiring.KindPR {
				start = g.minMergeState(ring)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if start != nil {
					b.StopTimer()
					copy(vals, start)
					b.StartTimer()
				}
				NativeMergeDense(contrib, vals, op)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(vals)), "ns/vertex")
		})
	}
}

// BenchmarkNativeScatterMerge times the post-OP merge per contribution
// element for SpMV, the built-in ring whose native OP lanes take it
// (BFS and SSSP iterations run the fused NativePushMerge instead): the
// tile pass output of a 10 % frontier merged into the same starting
// state every repetition (reset outside the timer).
func BenchmarkNativeScatterMerge(b *testing.B) {
	g := newBenchGraph(b)
	const tiles, pesPerTile = 16, 16
	part := NewOPPartition(g.m, tiles, BalanceNNZ)
	f := gen.Frontier(g.m.C, 0.1, 17)
	op := opFor(semiring.SpMV(), g.m, g.prev)
	contrib := NativeOPMulti(part, []*matrix.SparseVec{f}, []Operand{op}, pesPerTile)[0]
	vals := g.prev.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(vals, g.prev)
		b.StartTimer()
		NativeScatterMerge(contrib, vals, op)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(max(contrib.NNZ(), 1)), "ns/elem")
}
