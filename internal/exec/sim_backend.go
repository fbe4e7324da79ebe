package exec

import (
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// simBackend is the paper-reproduction backend: every pass runs on a
// fresh trace-driven machine (kernels.Run*) and reports simulated
// cycles, energy and microarchitectural stats. It composes the kernel
// entry points, whose seed timings are pinned bit-for-bit by
// TestSimBackendTimingsPinned.
type simBackend struct{}

// Sim returns the trace-driven simulator backend (the default).
func Sim() Backend { return simBackend{} }

func (simBackend) Name() string    { return "sim" }
func (simBackend) Simulated() bool { return true }

func fromSim(r sim.Result) Result {
	return Result{Cycles: r.Cycles, EnergyJ: r.EnergyJ, Stats: r.Stats, Balance: r.Balance}
}

// IPIteration is RunIPMulti (a lone vector under SCS stages its
// frontier in the scratchpad) followed by each lane's RunMergeDense, so
// every cycle is the two passes' own.
func (simBackend) IPIteration(cfg sim.Config, part *kernels.IPPartition, xs, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
	outs, res := kernels.RunIPMulti(cfg, part, xs, ops)
	next := make([]*matrix.SparseVec, len(xs))
	merge := make([]Result, len(xs))
	for l := range outs {
		var mres sim.Result
		vals[l], next[l], mres = kernels.RunMergeDense(cfg, outs[l], vals[l], ops[l])
		merge[l] = fromSim(mres)
	}
	return vals, next, fromSim(res), merge
}

// OPIteration runs each lane's RunOP and then its RunScatterMerge, on
// separate machines, and sums the kernels' costs. OP streams the
// frontier, not the matrix, so there is no shared stream to amortize in
// the timing model — fusion's win is on the IP side, which
// dense/high-activity batch workloads use. Keeping lanes on solo RunOP
// also keeps per-lane cost accounting exact, and a single lane keeps
// its whole Result.
func (simBackend) OPIteration(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result) {
	next := make([]*matrix.SparseVec, len(fs))
	merge := make([]Result, len(fs))
	var kernel Result
	for l := range fs {
		out, res := kernels.RunOP(cfg, part, fs[l], ops[l])
		kernel.Cycles += res.Cycles
		kernel.EnergyJ += res.EnergyJ
		kernel.Stats.Add(res.Stats)
		if len(fs) == 1 {
			kernel.Balance = res.Balance
		}
		var mres sim.Result
		vals[l], next[l], mres = kernels.RunScatterMerge(cfg, out, vals[l], ops[l])
		merge[l] = fromSim(mres)
	}
	return vals, next, kernel, merge
}

func (simBackend) FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result) {
	buf, res := kernels.RunFrontierDense(cfg, buf, clear, set, op)
	return buf, fromSim(res)
}

func (simBackend) ReconfigCycles(par sim.Params) int64 { return par.ReconfigCycles }
