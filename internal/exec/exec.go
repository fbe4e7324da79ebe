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
	"fmt"
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

// Backend executes the five kernel passes of one CoSPARSE iteration.
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

	// IP runs the inner-product kernel over the dense frontier x. IP
	// and OP are the one-lane forms of IPMulti and OPMulti, which is
	// what the runtime's iteration loop calls.
	IP(cfg sim.Config, part *kernels.IPPartition, x matrix.Dense, op kernels.Operand) (matrix.Dense, Result)

	// OP runs the outer-product kernel over the sparse frontier f.
	OP(cfg sim.Config, part *kernels.OPPartition, f *matrix.SparseVec, op kernels.Operand) (*matrix.SparseVec, Result)

	// IPMulti runs k fused inner-product kernels over one matrix
	// traversal (SpMV → SpMM with LaneBlock-wide vector blocks). Each
	// lane's output is bit-identical to a solo IP call with the same
	// frontier and operand; the Result is the fused run's aggregate
	// cost, which the caller apportions across lanes (a single lane's
	// Result is that lane's solo cost, Stats included).
	IPMulti(cfg sim.Config, part *kernels.IPPartition, xs []matrix.Dense, ops []kernels.Operand) ([]matrix.Dense, Result)

	// OPMulti runs k outer-product kernels in one batched invocation
	// (lanes share the tile-local CSC working set). Per-lane outputs
	// are bit-identical to solo OP calls; the Result is the aggregate.
	OPMulti(cfg sim.Config, part *kernels.OPPartition, fs []*matrix.SparseVec, ops []kernels.Operand) ([]*matrix.SparseVec, Result)

	// MergeDense merges the IP kernel output into vals and extracts the
	// next sparse frontier (nil for dense-frontier semirings).
	MergeDense(cfg sim.Config, contrib, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result)

	// ScatterMerge merges the OP kernel output into vals and extracts
	// the next sparse frontier.
	ScatterMerge(cfg sim.Config, contrib *matrix.SparseVec, vals matrix.Dense, op kernels.Operand) (matrix.Dense, *matrix.SparseVec, Result)

	// FrontierDense maintains the persistent dense frontier buffer:
	// clear the previously scattered indices, scatter in the new ones.
	FrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op kernels.Operand) (matrix.Dense, Result)

	// ReconfigCycles is the cost charged when the iteration's
	// configuration decision flips: the simulator charges the paper's
	// reconfiguration penalty, the native backend charges nothing (the
	// "reconfiguration" is just calling a different function).
	ReconfigCycles(par sim.Params) int64
}

// ByName resolves a backend by its flag/request spelling. The empty
// string means the default (sim) backend.
func ByName(name string) (Backend, error) {
	switch name {
	case "", "sim":
		return Sim(), nil
	case "native":
		return Native(), nil
	}
	return nil, fmt.Errorf("exec: unknown backend %q (want \"sim\" or \"native\")", name)
}
