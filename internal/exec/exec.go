// Package exec defines the execution-backend seam between the
// functional SpMV kernels and the machinery that runs and measures
// them. CoSPARSE's contribution is the reconfiguration heuristic, not
// the cycle model it was evaluated on: the same IP/OP kernel bodies can
// execute under the trace-driven timing simulator (the paper
// reproduction) or goroutine-parallel on the host (a serving path that
// is as fast as the hardware allows). Both backends apply the same
// operations in the same order (the generic pass bodies in
// internal/kernels; on the host, IP is one probe-free loop per Table I
// row replaying them, with the semiring closures as the fallback for
// custom rings), so their functional results are bit-identical; only
// the cost accounting differs — simulated cycles and energy versus
// wall-clock duration.
package exec

import (
	"time"

	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// Result is one kernel invocation's cost as measured by a backend. A
// simulated backend fills Cycles/EnergyJ/Stats from the trace-driven
// machine and leaves Wall zero; the native backend fills Wall with host
// wall-clock time and leaves the simulated fields zero.
type Result struct {
	Cycles  int64
	Wall    time.Duration
	EnergyJ float64
	Stats   sim.Stats
	// Balance is the simulator's PE load-balance figure (sim.Result);
	// zero on the native backend.
	Balance float64
}

// Backend runs one CoSPARSE iteration per dataflow — the kernel and the
// merge of its output into each lane's values — plus the frontier
// conversion an IP iteration on a sparse-frontier ring needs first.
// The sim.Config argument carries the geometry and the (nominal, for
// native) hardware configuration the decision layer chose; a backend is
// free to ignore the parts it does not model.
type Backend interface {
	// Name identifies the backend ("sim", "native") in reports, metrics
	// labels and cache keys.
	Name() string

	// Simulated reports whether Results carry cycle counts from the
	// timing model (true) or host wall-clock durations (false). The
	// decision layer also keys its heuristic off this: CVD thresholds
	// were calibrated on the simulator, the native backend uses host
	// crossover thresholds.
	Simulated() bool

	// IPIteration runs one inner-product iteration for k lanes: k
	// fused kernels over one matrix traversal of the dense frontiers xs
	// (SpMV → SpMM with LaneBlock-wide vector blocks), then the dense
	// merge of each lane's output into its values, which it updates in
	// place. It returns each lane's merged values and next frontier (nil
	// for dense-frontier semirings), the kernel's aggregate cost — which
	// the caller apportions across lanes; a single lane's is that lane's
	// solo cost, Stats included — and each lane's merge cost. A lane's
	// values do not depend on how many lanes ride along.
	IPIteration(cfg sim.Config, part *kernels.IPPartition, xs, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result)

	// OPIteration runs one outer-product iteration for k lanes: the
	// kernel over each lane's sparse frontier, then the scatter merge
	// of its output into the lane's values, which it updates in place.
	// It returns what IPIteration returns.
	OPIteration(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, vals []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, []*matrix.SparseVec, Result, []Result)

	// FrontierDense maintains the persistent dense frontier buffer:
	// clear the previously scattered indices, scatter in the new ones.
	FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result)

	// ReconfigCycles is the cost charged when the iteration's
	// configuration decision flips: the simulator charges the paper's
	// reconfiguration penalty, the native backend charges nothing (the
	// "reconfiguration" is just calling a different function).
	ReconfigCycles(par sim.Params) int64
}
