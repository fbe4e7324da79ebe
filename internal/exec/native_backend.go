package exec

import (
	"time"

	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// NativeBackend runs the same kernel pass bodies goroutine-parallel on
// the host (kernels.Native*) and reports wall-clock time. The
// sim.Config still flows in — its geometry fixes the OP frontier split
// so the merge order (and hence every float32 reduction) matches the
// simulator exactly — but no timing model runs and the HW configuration
// is only a nominal label.
//
// Besides the Backend methods it keeps IP, OP, IPMulti, MergeDense and
// ScatterMerge, one kernel or merge pass each. They are probe-only: the
// benchmark's per-layer probes time them, nothing in the program calls
// them, and they go once those probes time the iterations instead.
type NativeBackend struct{}

// Native returns the host-parallel backend.
func Native() NativeBackend { return NativeBackend{} }

func (NativeBackend) Name() string    { return "native" }
func (NativeBackend) Simulated() bool { return false }

// IPIteration is NativeIPMulti followed by each lane's
// NativeMergeDense.
func (NativeBackend) IPIteration(cfg sim.Config, part *kernels.IPPartition, xs, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
	t0 := time.Now()
	outs := kernels.NativeIPMulti(part, xs, ops)
	kernel := Result{Wall: time.Since(t0)}
	next := make([]*matrix.SparseVec, len(xs))
	merge := make([]Result, len(xs))
	for l := range outs {
		t0 = time.Now()
		vals[l], next[l] = kernels.NativeMergeDense(outs[l], vals[l], ops[l])
		merge[l].Wall = time.Since(t0)
	}
	return vals, next, kernel, merge
}

// OPIteration runs each lane that kernels.NativePushMerge takes — BFS,
// and SSSP on the weights MinRingFast admits — as one fused pass whose
// push is the kernel cost and whose frontier emit is the merge cost,
// and every other lane through NativeOPMulti followed by its
// NativeScatterMerge.
func (NativeBackend) OPIteration(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
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
	t0 := time.Now()
	outs := kernels.NativeOPMulti(part, rfs, rops, cfg.Geometry.PEsPerTile)
	kernel.Wall += time.Since(t0)
	for i, l := range rest {
		t0 = time.Now()
		vals[l], next[l] = kernels.NativeScatterMerge(outs[i], vals[l], ops[l])
		merge[l].Wall = time.Since(t0)
	}
	return vals, next, kernel, merge
}

func (NativeBackend) FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result) {
	t0 := time.Now()
	buf = kernels.NativeFrontierDense(buf, clear, set, op)
	return buf, Result{Wall: time.Since(t0)}
}

// ReconfigCycles: switching kernels natively is an indirect call, not a
// hardware reconfiguration — no cost.
func (NativeBackend) ReconfigCycles(sim.Params) int64 { return 0 }

// IP runs the inner-product kernel for one lane. Probe-only.
func (b NativeBackend) IP(cfg sim.Config, part *kernels.IPPartition, x matrix.Dense, op kernels.Operand) (matrix.Dense, Result) {
	outs, res := b.IPMulti(cfg, part, []matrix.Dense{x}, []kernels.Operand{op})
	return outs[0], res
}

// OP runs the outer-product kernel for one lane. Probe-only.
func (NativeBackend) OP(cfg sim.Config, part *kernels.OPPartition, f *matrix.SparseVec, op kernels.Operand) (*matrix.SparseVec, Result) {
	t0 := time.Now()
	outs := kernels.NativeOPMulti(part, []*matrix.SparseVec{f}, []kernels.Operand{op}, cfg.Geometry.PEsPerTile)
	return outs[0], Result{Wall: time.Since(t0)}
}

// IPMulti runs k fused inner-product kernels over one matrix
// traversal. Probe-only.
func (NativeBackend) IPMulti(cfg sim.Config, part *kernels.IPPartition, xs []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, Result) {
	t0 := time.Now()
	outs := kernels.NativeIPMulti(part, xs, ops)
	return outs, Result{Wall: time.Since(t0)}
}

// MergeDense merges an IP kernel output into vals and extracts the next
// sparse frontier. Probe-only.
func (NativeBackend) MergeDense(cfg sim.Config, contrib, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	t0 := time.Now()
	vals, next := kernels.NativeMergeDense(contrib, vals, op)
	return vals, next, Result{Wall: time.Since(t0)}
}

// ScatterMerge merges an OP kernel output into vals and extracts the
// next sparse frontier. Probe-only.
func (NativeBackend) ScatterMerge(cfg sim.Config, contrib *matrix.SparseVec, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	t0 := time.Now()
	vals, next := kernels.NativeScatterMerge(contrib, vals, op)
	return vals, next, Result{Wall: time.Since(t0)}
}
