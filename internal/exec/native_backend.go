package exec

import (
	"time"

	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// nativeBackend runs the same kernel pass bodies goroutine-parallel on
// the host (kernels.Native*) and reports wall-clock time. The
// sim.Config still flows in — its geometry fixes the OP frontier split
// so the merge order (and hence every float32 reduction) matches the
// simulator exactly — but no timing model runs and the HW configuration
// is only a nominal label.
type nativeBackend struct{}

// Native returns the host-parallel backend.
func Native() Backend { return nativeBackend{} }

func (nativeBackend) Name() string    { return "native" }
func (nativeBackend) Simulated() bool { return false }

// IP and OP are one-lane calls of the multi-vector kernels: the host
// has one body per dataflow.
func (b nativeBackend) IP(cfg sim.Config, part *kernels.IPPartition, x matrix.Dense, op kernels.Operand) (matrix.Dense, Result) {
	outs, res := b.IPMulti(cfg, part, []matrix.Dense{x}, []kernels.Operand{op})
	return outs[0], res
}

func (b nativeBackend) OP(cfg sim.Config, part *kernels.OPPartition, f *matrix.SparseVec, op kernels.Operand) (*matrix.SparseVec, Result) {
	outs, res := b.OPMulti(cfg, part, []*matrix.SparseVec{f}, []kernels.Operand{op})
	return outs[0], res
}

func (nativeBackend) IPMulti(cfg sim.Config, part *kernels.IPPartition, xs []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, Result) {
	t0 := time.Now()
	outs := kernels.NativeIPMulti(part, xs, ops)
	return outs, Result{Wall: time.Since(t0)}
}

func (nativeBackend) OPMulti(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, ops []kernels.Operand) ([]*matrix.SparseVec, Result) {
	t0 := time.Now()
	outs := kernels.NativeOPMulti(part, fs, ops, cfg.Geometry.PEsPerTile)
	return outs, Result{Wall: time.Since(t0)}
}

// OPIteration runs each lane that kernels.NativePushMerge takes — BFS,
// and SSSP on the weights MinRingFast admits — as one fused pass whose
// push is the kernel cost and whose frontier emit is the merge cost,
// and every other lane as OPMulti followed by its ScatterMerge.
func (b nativeBackend) OPIteration(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
	next := make([]*matrix.SparseVec, len(fs))
	merge := make([]Result, len(fs))
	var kernel Result
	var rest []int // the lanes the fused pass does not take
	for l := range fs {
		t0 := time.Now()
		nx, push, ok := kernels.NativePushMerge(part, fs[l], vals[l], ops[l])
		if !ok {
			rest = append(rest, l)
			continue
		}
		next[l] = nx
		kernel.Wall += push
		merge[l].Wall = time.Since(t0) - push
	}
	if len(rest) == 0 {
		return vals, next, kernel, merge
	}
	rfs := make([]*matrix.SparseVec, len(rest))
	rops := make([]kernels.Operand, len(rest))
	for i, l := range rest {
		rfs[i], rops[i] = fs[l], ops[l]
	}
	outs, res := b.OPMulti(cfg, part, rfs, rops)
	kernel.Wall += res.Wall
	for i, l := range rest {
		vals[l], next[l], merge[l] = b.ScatterMerge(cfg, outs[i], vals[l], ops[l])
	}
	return vals, next, kernel, merge
}

func (nativeBackend) MergeDense(cfg sim.Config, contrib, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	t0 := time.Now()
	vals, next := kernels.NativeMergeDense(contrib, vals, op)
	return vals, next, Result{Wall: time.Since(t0)}
}

func (nativeBackend) ScatterMerge(cfg sim.Config, contrib *matrix.SparseVec, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	t0 := time.Now()
	vals, next := kernels.NativeScatterMerge(contrib, vals, op)
	return vals, next, Result{Wall: time.Since(t0)}
}

func (nativeBackend) FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result) {
	t0 := time.Now()
	buf = kernels.NativeFrontierDense(buf, clear, set, op)
	return buf, Result{Wall: time.Since(t0)}
}

// ReconfigCycles: switching kernels natively is an indirect call, not a
// hardware reconfiguration — no cost.
func (nativeBackend) ReconfigCycles(sim.Params) int64 { return 0 }
