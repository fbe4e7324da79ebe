package exec

import (
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// simBackend is the paper-reproduction backend: every pass runs on a
// fresh trace-driven machine (kernels.Run*) and reports simulated
// cycles, energy and microarchitectural stats. It is a pass-through to
// the kernel entry points, whose seed timings are pinned bit-for-bit by
// TestSimBackendTimingsPinned.
type simBackend struct{}

// Sim returns the trace-driven simulator backend (the default).
func Sim() Backend { return simBackend{} }

func (simBackend) Name() string    { return "sim" }
func (simBackend) Simulated() bool { return true }

func fromSim(r sim.Result) Result {
	return Result{Cycles: r.Cycles, EnergyJ: r.EnergyJ, Stats: r.Stats, Balance: r.Balance}
}

// IP is the one-lane IPMulti: a lone vector under SCS stages its
// frontier in the scratchpad.
func (b simBackend) IP(cfg sim.Config, part *kernels.IPPartition, x matrix.Dense, op kernels.Operand) (matrix.Dense, Result) {
	outs, res := b.IPMulti(cfg, part, []matrix.Dense{x}, []kernels.Operand{op})
	return outs[0], res
}

func (simBackend) OP(cfg sim.Config, part *kernels.OPPartition, f *matrix.SparseVec, op kernels.Operand) (*matrix.SparseVec, Result) {
	out, res := kernels.RunOP(cfg, part, f, op)
	return out, fromSim(res)
}

func (simBackend) IPMulti(cfg sim.Config, part *kernels.IPPartition, xs []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, Result) {
	outs, res := kernels.RunIPMulti(cfg, part, xs, ops)
	return outs, fromSim(res)
}

// OPMulti on the simulator runs the lanes back to back on separate
// machines and sums their costs. OP streams the frontier, not the
// matrix, so there is no shared stream to amortize in the timing model
// — fusion's win is on the IP side, which dense/high-activity batch
// workloads use. Keeping lanes on solo RunOP also keeps per-lane cost
// accounting exact, and a single lane keeps its whole Result.
func (b simBackend) OPMulti(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, ops []kernels.Operand) ([]*matrix.SparseVec, Result) {
	if len(fs) == 1 {
		out, res := b.OP(cfg, part, fs[0], ops[0])
		return []*matrix.SparseVec{out}, res
	}
	outs := make([]*matrix.SparseVec, len(fs))
	var agg Result
	for l := range fs {
		out, res := kernels.RunOP(cfg, part, fs[l], ops[l])
		outs[l] = out
		agg.Cycles += res.Cycles
		agg.EnergyJ += res.EnergyJ
		agg.Stats.Add(res.Stats)
	}
	return outs, agg
}

// OPIteration is OPMulti followed by each lane's ScatterMerge, so every
// cycle is the two passes' own.
func (b simBackend) OPIteration(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
	outs, kernel := b.OPMulti(cfg, part, fs, ops)
	next := make([]*matrix.SparseVec, len(fs))
	merge := make([]Result, len(fs))
	for l := range fs {
		vals[l], next[l], merge[l] = b.ScatterMerge(cfg, outs[l], vals[l], ops[l])
	}
	return vals, next, kernel, merge
}

func (simBackend) MergeDense(cfg sim.Config, contrib, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	vals, next, res := kernels.RunMergeDense(cfg, contrib, vals, op)
	return vals, next, fromSim(res)
}

func (simBackend) ScatterMerge(cfg sim.Config, contrib *matrix.SparseVec, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result) {
	vals, next, res := kernels.RunScatterMerge(cfg, contrib, vals, op)
	return vals, next, fromSim(res)
}

func (simBackend) FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result) {
	buf, res := kernels.RunFrontierDense(cfg, buf, clear, set, op)
	return buf, fromSim(res)
}

func (simBackend) ReconfigCycles(par sim.Params) int64 { return par.ReconfigCycles }
