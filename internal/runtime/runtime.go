// Package runtime implements the CoSPARSE reconfiguration layer
// (paper §III): for every SpMV invocation of an iterative graph
// algorithm it selects the software configuration (inner- vs
// outer-product) from the frontier density, then the hardware
// configuration (SC/SCS for IP, PC/PS for OP) from the matrix/vector
// working-set sizes — and charges the reconfiguration and vector
// format-conversion costs the paper describes in §III-D2.
package runtime

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cosparse/internal/exec"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// SWChoice selects or forces the software configuration.
type SWChoice int

const (
	// AutoSW lets the decision tree pick IP or OP per iteration.
	AutoSW SWChoice = iota
	// ForceIP always runs the inner-product kernel.
	ForceIP
	// ForceOP always runs the outer-product kernel.
	ForceOP
)

// HWChoice selects or forces the hardware configuration.
type HWChoice int

const (
	// AutoHW lets the decision tree pick the memory configuration.
	AutoHW HWChoice = iota
	// ForceSC .. ForcePS pin the named configuration (the kernel
	// dataflow still follows the SW choice).
	ForceSC
	ForceSCS
	ForcePC
	ForcePS
)

func (h HWChoice) hw() sim.HWConfig {
	switch h {
	case ForceSC:
		return sim.SC
	case ForceSCS:
		return sim.SCS
	case ForcePC:
		return sim.PC
	default:
		return sim.PS
	}
}

// Policy holds the calibrated thresholds of the decision tree
// (§III-C). DefaultPolicy's constants were derived from the Fig. 4–6
// sweeps on this simulator, mirroring how the paper derives its own.
type Policy struct {
	// CVDCoeff sets the crossover vector density: CVD = CVDCoeff /
	// PEsPerTile, clamped to [CVDMin, CVDMax]. The paper reports CVD
	// falling from ~2% at 8 PEs/tile to ~0.5% at 32.
	CVDCoeff float64
	CVDMin   float64
	CVDMax   float64

	// SCSReuseFloor is the minimum reuse per SPM-filled word —
	// nnz/(|V|·Tiles), i.e. how many matrix elements each vector word a
	// tile stages into its scratchpad will serve (the per-word form of
	// the paper's N·r·P/T, §III-C2) — for SCS to amortize its fill.
	SCSReuseFloor float64

	// SCSMinDensity is the frontier density below which SCS cannot win
	// (Fig. 5: SCS gains grow with vector density, because dense
	// frontiers drive the output traffic that evicts vector lines from
	// SC's caches).
	SCSMinDensity float64

	// PSListFactor scales the private-L1 capacity when deciding whether
	// the OP sorted list fits in a PC-mode cache bank (Fig. 6): PS is
	// chosen when listBytes > PSListFactor × L1BankBytes.
	PSListFactor float64

	// NativeCrossover is the frontier density at which the native
	// backend switches from OP to IP. The CVD thresholds above were
	// calibrated on the simulated memory system; on the host the same
	// IP-scans-everything/OP-touches-active-columns tradeoff exists but
	// crosses over where the full matrix stream stops being amortized
	// by the active fraction, which lands near 1% on cache-based CPUs.
	NativeCrossover float64

	// NativeMinCrossover replaces NativeCrossover for a lane whose ring
	// runs the native min-ring kernels (kernels.OPPartition.MinRingFast:
	// BFS, and SSSP on non-negative finite weights). Their push has no
	// heap — one CAS-min pass over the whole-graph column index that is
	// also the merge — and their pull is one flat min per edge, so the
	// crossover moves up to where a sweep of every edge costs less than
	// pushing the active columns' edges. Fitted on job time
	// (BENCH_backends.json "native_min_crossover_fit"). The value stays
	// while its median job time is within the quartile spread of the
	// best candidate on every graph — and a moved value must leave no
	// benchmark workload slower. With the fused push, 0.2 falls outside
	// on pokec or vsp in each of three fits, where 0.4–0.6 are best;
	// but 0.5 made lib-traverse-sparse 2.5 % slower in six of six
	// paired runs, so 0.2 stays.
	NativeMinCrossover float64
}

// DefaultPolicy returns thresholds calibrated on this simulator from
// the Fig. 4–6 sweeps (see EXPERIMENTS.md). The resulting CVD matches
// the paper's takeaway exactly: 2% at 8 PEs/tile, 1% at 16, 0.5% at 32.
func DefaultPolicy() Policy {
	return Policy{
		CVDCoeff:           0.16,
		CVDMin:             0.003,
		CVDMax:             0.02,
		SCSReuseFloor:      1.5,
		SCSMinDensity:      0.02,
		PSListFactor:       0.5,
		NativeCrossover:    0.01,
		NativeMinCrossover: 0.2,
	}
}

// CVD returns the crossover vector density for a machine with p PEs
// per tile.
func (pol Policy) CVD(p int) float64 {
	if p < 1 {
		p = 1
	}
	cvd := pol.CVDCoeff / float64(p)
	return math.Min(pol.CVDMax, math.Max(pol.CVDMin, cvd))
}

// Options configure a Framework.
type Options struct {
	Geometry sim.Geometry
	Params   sim.Params // zero value = sim.DefaultParams()
	Policy   Policy     // zero value = DefaultPolicy()
	SW       SWChoice
	HW       HWChoice

	// Backend selects the execution substrate: nil or exec.Sim() runs
	// the kernels on the trace-driven timing simulator (cycle-accurate,
	// the paper reproduction); exec.Native() runs the same kernels
	// goroutine-parallel on the host and reports wall-clock durations.
	Backend exec.Backend

	// OnIteration, if set, observes each completed iteration: the
	// iteration's stats and the frontier it produced (nil when the
	// semiring keeps a dense frontier). The callback must not retain or
	// mutate the frontier.
	OnIteration func(st IterStat, next *matrix.SparseVec)

	// IterHook, if set, is consulted at every iteration boundary right
	// after the context check, before the SpMV is issued. A non-nil
	// error stops the run the same way a cancelled context does: the
	// partial report is returned alongside the (wrapped) error. The
	// serving layer uses this for fault injection and health probes.
	IterHook func(iter int) error

	// traceCap bounds Report.Iters: runs longer than the cap keep only
	// the most recent entries (Report.DroppedIters counts the rest).
	// 0 means DefaultTraceCap, the bound every public engine uses;
	// negative means unbounded. Only this package's tests set it.
	traceCap int
}

// Framework is a CoSPARSE instance bound to one graph: it holds the
// resident store (any matrix.Format behind the format seam), the IP/OP
// partitions built from one decode of it — the IP arrays, the
// out-degrees counted while they are placed, and OP tiles cut from
// those arrays (§III-D2 keeps both dataflows' layouts resident so
// reconfiguration never pays a conversion) — and the decision policy.
// It is read-only after construction — every buffer a run writes
// belongs to that run's lanes, and the lazily built pieces (partition
// layouts, the reversed graph) are built once under a sync.Once — so
// any number of runs may share one Framework concurrently.
type Framework struct {
	st   matrix.Store
	n    int // vertices (the adjacency matrix is square)
	nnz  int
	opts Options

	ipPart *kernels.IPPartition // vblocked to the SPM capacity (used by SC and SCS)
	opPart *kernels.OPPartition

	// The framework over the reversed graph, for BC's δ lane;
	// see reversed.
	revOnce sync.Once
	rev     *Framework
	revErr  error
}

// reversed returns the framework over the reversed graph, building it
// on the first call. The store is stream-transposed (two DecodeRows
// passes, counting placement) rather than materialised as COO first:
// the same bit-identical reversed matrix without holding compressed +
// full COO + transposed COO at once. It stays in the uncompressed
// baseline whatever f's format.
func (f *Framework) reversed() (*Framework, error) {
	f.revOnce.Do(func() {
		f.rev, f.revErr = NewFromStore(matrix.TransposeOf(f.st), f.opts)
	})
	return f.rev, f.revErr
}

// NewFromStore builds a Framework over any resident matrix store
// holding the transposed adjacency matrix (element (dst, src) = edge
// src→dst). It
// decodes nothing: the IP partition decodes its per-PE row chunks
// through the Store seam on first use, into the exact layout the COO
// baseline produces, and the degrees and OP tiles come from that one
// decode — so results and sim timings do not depend on the resident
// format, and an engine decodes its store once.
func NewFromStore(st matrix.Store, opts Options) (*Framework, error) {
	r, c := st.Dims()
	if r != c {
		return nil, fmt.Errorf("runtime: adjacency matrix must be square, got %dx%d", r, c)
	}
	if opts.Params.WordBytes == 0 {
		opts.Params = sim.DefaultParams()
	}
	if opts.Policy == (Policy{}) {
		opts.Policy = DefaultPolicy()
	}
	if opts.Backend == nil {
		opts.Backend = exec.Sim()
	}
	cfg := sim.Config{Geometry: opts.Geometry, HW: sim.SC, Params: opts.Params}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Framework{st: st, n: r, nnz: st.NNZ(), opts: opts}
	// One IP layout, vblocked to the SCS scratchpad capacity, shared by
	// both SC and SCS: the paper notes the vertical partition "is not
	// required for the SC mode but can still be beneficial" (§III-B),
	// and our calibration confirms SC with blocked locality is the
	// baseline that reproduces Fig. 5's gain envelope. The OP tiles are
	// cut from the IP arrays, so the engine holds no whole-graph column
	// store of either kind.
	scs := sim.Config{Geometry: opts.Geometry, HW: sim.SCS, Params: opts.Params}
	f.ipPart, f.opPart = kernels.NewPartitions(st, opts.Geometry.Tiles, opts.Geometry.PEsPerTile,
		scs.SPMWordsPerTile(), kernels.BalanceNNZ)
	return f, nil
}

// N returns the number of vertices.
func (f *Framework) N() int { return f.n }

// maxIters bounds a traversal's iterations at 4·|V| + 8, well past the
// |V| rounds BFS and Bellman–Ford need: it stops only a run that never
// converges.
func (f *Framework) maxIters() int { return 4*f.n + 8 }

// Decision is one iteration's configuration choice.
type Decision struct {
	UseIP bool
	HW    sim.HWConfig
}

// String formats the decision like the paper's Fig. 9 ("IP/SCS").
func (d Decision) String() string {
	sw := "OP"
	if d.UseIP {
		sw = "IP"
	}
	return sw + "/" + d.HW.String()
}

// Decide runs the decision tree of Fig. 2 for a frontier with nnzF
// active vertices. On a native backend the SW split keeps the same
// shape (dense frontier → IP, sparse → OP) but swaps the
// simulator-calibrated CVD for host thresholds; see decideNative.
// It answers for the generic OP pass; a run decides per lane, and
// native BFS/SSSP lanes cross at Policy.NativeMinCrossover instead.
func (f *Framework) Decide(nnzF int) Decision {
	if !f.opts.Backend.Simulated() {
		return f.decideNative(nnzF, false)
	}
	g := f.opts.Geometry
	pol := f.opts.Policy
	par := f.opts.Params
	density := float64(nnzF) / float64(f.n)

	useIP := density >= pol.CVD(g.PEsPerTile)
	switch f.opts.SW {
	case ForceIP:
		useIP = true
	case ForceOP:
		useIP = false
	}

	var hw sim.HWConfig
	if useIP {
		// SC vs SCS: staging vector segments in the scratchpad pays off
		// when (a) each staged word serves enough matrix elements to
		// amortize the per-tile fill — nnz/(|V|·Tiles), the per-word
		// form of the paper's N·r·P/T reuse metric (§III-C2) — and
		// (b) the frontier is dense enough that the matrix stream and
		// output traffic would evict SC's cached vector lines (Fig. 5:
		// SCS gains grow with vector density).
		perWordReuse := float64(f.nnz) / (float64(f.n) * float64(g.Tiles))
		if perWordReuse >= pol.SCSReuseFloor && density >= pol.SCSMinDensity {
			hw = sim.SCS
		} else {
			hw = sim.SC
		}
	} else {
		// PC vs PS: does the per-PE sorted list fit in a private L1 bank?
		perPE := (nnzF + g.PEsPerTile - 1) / g.PEsPerTile
		listBytes := float64(perPE * 16) // four words per sorted-list entry
		if listBytes > pol.PSListFactor*float64(par.L1BankBytes) {
			hw = sim.PS
		} else {
			hw = sim.PC
		}
	}
	if f.opts.HW != AutoHW {
		// Forced configurations are honored verbatim — the Fig. 9
		// experiment deliberately evaluates off-diagonal pairings such
		// as OP under SC.
		return Decision{UseIP: useIP, HW: f.opts.HW.hw()}
	}
	// Keep auto SW/HW pairings legal: IP runs on shared configs, OP on
	// private ones (Fig. 2).
	if useIP && (hw == sim.PC || hw == sim.PS) {
		hw = sim.SC
	}
	if !useIP && (hw == sim.SC || hw == sim.SCS) {
		hw = sim.PC
	}
	return Decision{UseIP: useIP, HW: hw}
}

// decideFor is the decision a lane of ring makes.
func (f *Framework) decideFor(nnzF int, ring *semiring.Semiring) Decision {
	if f.opts.Backend.Simulated() {
		return f.Decide(nnzF)
	}
	return f.decideNative(nnzF, f.opPart.MinRingFast(ring))
}

// decideNative is the host-backend decision: IP when the frontier is
// dense enough that streaming the whole matrix amortizes
// (NativeCrossover, or NativeMinCrossover for a min-ring lane). The HW
// half of the decision is a nominal label (SC for IP, PC for OP): the
// host has no scratchpad to reconfigure, but reports and traces keep
// the same vocabulary.
func (f *Framework) decideNative(nnzF int, minRing bool) Decision {
	pol := f.opts.Policy
	density := float64(nnzF) / float64(f.n)

	useIP := density >= pol.NativeCrossover
	if minRing {
		useIP = density >= pol.NativeMinCrossover
	}
	switch f.opts.SW {
	case ForceIP:
		useIP = true
	case ForceOP:
		useIP = false
	}
	if f.opts.HW != AutoHW {
		return Decision{UseIP: useIP, HW: f.opts.HW.hw()}
	}
	if useIP {
		return Decision{UseIP: true, HW: sim.SC}
	}
	return Decision{UseIP: false, HW: sim.PC}
}

// IterStat records one iteration for reporting (the rows of Fig. 9).
type IterStat struct {
	Iter        int
	FrontierNNZ int
	Density     float64
	Decision    Decision
	Reconfig    bool

	KernelCycles int64
	MergeCycles  int64
	ConvCycles   int64
	TotalCycles  int64
	EnergyJ      float64
	Stats        sim.Stats

	// Wall-clock phase durations, filled by non-simulated backends
	// (zero under the simulator, whose cost unit is cycles).
	KernelWall time.Duration
	MergeWall  time.Duration
	ConvWall   time.Duration
	TotalWall  time.Duration
}

// Report summarizes a full algorithm run.
//
// Iters is the per-iteration decision trace, bounded by
// DefaultTraceCap: when a run exceeds the cap, only the most recent
// entries are retained. TotalIters is always the exact number of
// iterations executed and DroppedIters how many fell out of the
// bounded trace (0 for a complete trace), so cycle/energy totals —
// which are exact regardless — can be trusted even when len(Iters) <
// TotalIters.
type Report struct {
	Algorithm    string
	Geometry     sim.Geometry
	Backend      string // executing backend's Name(); "" ≡ "sim" on pre-split reports
	Iters        []IterStat
	TotalIters   int
	DroppedIters int
	TotalCycles  int64
	TotalWall    time.Duration // wall-clock kernel time; zero under the simulator
	EnergyJ      float64
	Stats        sim.Stats

	// Resumed is set when the run restarted from a checkpoint;
	// ResumedIter is the iteration it picked up at. Totals and the
	// trace cover the whole logical run, not just the resumed part.
	Resumed     bool
	ResumedIter int
}

// Seconds converts the cycle total at the 1 GHz clock of Table II.
func (r *Report) Seconds() float64 { return float64(r.TotalCycles) / sim.ClockHz }

// AvgPowerW returns average power over the run.
func (r *Report) AvgPowerW() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.EnergyJ / r.Seconds()
}

func (f *Framework) cfg(hw sim.HWConfig) sim.Config {
	return sim.Config{Geometry: f.opts.Geometry, HW: hw, Params: f.opts.Params}
}
