// Package cosparse is a software- and hardware-reconfigurable SpMV
// framework for graph analytics — a faithful reimplementation of
// "CoSPARSE: A Software and Hardware Reconfigurable SpMV Framework for
// Graph Analytics" (Feng et al., DAC 2021).
//
// A Graph is loaded (or generated) once; an Engine binds it to a
// simulated Transmuter-style reconfigurable many-core of a chosen
// geometry. Every algorithm iteration invokes one SpMV, and the engine
// picks, per iteration, the software configuration (inner-product for
// dense frontiers, outer-product for sparse ones) and the hardware
// configuration of the two-level on-chip memory (SC/SCS for IP, PC/PS
// for OP), charging reconfiguration and vector-conversion costs.
// Reports expose per-iteration decisions, cycle counts and energy.
//
//	g, _ := cosparse.GeneratePowerLaw(100_000, 1_000_000, cosparse.Weighted, 42)
//	eng, _ := cosparse.New(g, cosparse.System{Tiles: 16, PEsPerTile: 16})
//	dist, rep, _ := eng.SSSP(0)
//	fmt.Println(rep.Summary())
//
// All hardware is simulated deterministically (see internal/sim);
// identical inputs produce identical cycle counts on any host.
package cosparse

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

// Edge is one directed, weighted edge.
type Edge struct {
	Src, Dst int32
	Weight   float32
}

// ValueMode selects edge values for generated graphs.
type ValueMode int

const (
	// Unweighted gives every edge weight 1 (BFS, PR).
	Unweighted ValueMode = iota
	// Weighted draws weights uniformly from (0, 1] (SSSP, CF).
	Weighted
)

func (v ValueMode) gen() gen.ValueMode {
	if v == Weighted {
		return gen.UniformWeight
	}
	return gen.Pattern
}

// Format selects the resident storage layout of a Graph's matrix.
// Whatever the format, every algorithm produces bit-identical results
// on both backends: the engine decodes the store into the exact same
// partition layouts at build time, so only the resident footprint (and
// therefore how many graphs fit a node's memory budget) changes.
type Format int

const (
	// AutoFormat picks per graph: DVCSRFormat when the density/degree-
	// skew heuristic predicts a worthwhile saving, CSRFormat otherwise.
	AutoFormat Format = iota
	// CSRFormat is the uncompressed baseline (row-major triple store).
	CSRFormat
	// DVCSRFormat is delta-varint compressed sparse row: column gaps as
	// varints, values elided on unit-weight graphs.
	DVCSRFormat
)

// String returns the format's flag/metric spelling.
func (f Format) String() string {
	switch f {
	case CSRFormat:
		return "csr"
	case DVCSRFormat:
		return "dvcsr"
	}
	return "auto"
}

// ParseFormat parses a -format flag or register-request value. The
// empty string selects auto.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AutoFormat, nil
	case "csr":
		return CSRFormat, nil
	case "dvcsr":
		return DVCSRFormat, nil
	}
	return 0, fmt.Errorf("cosparse: unknown format %q (want \"auto\", \"csr\" or \"dvcsr\")", s)
}

// Graph is an immutable graph bound to the CoSPARSE storage convention
// (the transposed adjacency matrix, ready for f_next = SpMV(G.T, f)).
// Its matrix lives behind the format seam: see InFormat.
type Graph struct {
	st matrix.Store
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { r, _ := g.st.Dims(); return r }

// NumEdges returns the number of stored edges.
func (g *Graph) NumEdges() int { return g.st.NNZ() }

// Density returns |E| / |V|².
func (g *Graph) Density() float64 {
	r, c := g.st.Dims()
	if r == 0 || c == 0 {
		return 0
	}
	return float64(g.st.NNZ()) / (float64(r) * float64(c))
}

// Format returns the resident storage format ("csr" or "dvcsr").
func (g *Graph) Format() string { return g.st.Format().String() }

// ResidentBytes returns the measured footprint of the resident matrix
// arrays — the figure the service's admission controller charges.
func (g *Graph) ResidentBytes() int64 { return g.st.ResidentBytes() }

// InFormat returns the same graph re-encoded in the requested resident
// format (the graph itself when the format already matches).
// AutoFormat applies the exact-size selection: DVCSR when it saves
// enough over CSR, CSR otherwise.
func (g *Graph) InFormat(f Format) (*Graph, error) {
	want := matrix.FormatCSR
	if f == DVCSRFormat || (f == AutoFormat && matrix.AutoSelectStore(g.st) == matrix.FormatDVCSR) {
		want = matrix.FormatDVCSR
	}
	if g.st.Format() == want {
		return g, nil
	}
	// The formats differ, so exactly one side is the COO baseline.
	m, err := g.st.ToCOO()
	if err != nil {
		return nil, fmt.Errorf("cosparse: %w", err)
	}
	if want == matrix.FormatCSR {
		return &Graph{st: m}, nil
	}
	d, err := matrix.EncodeDVCSR(m)
	if err != nil {
		return nil, fmt.Errorf("cosparse: %w", err)
	}
	return &Graph{st: d}, nil
}

// OutDegree returns the out-degree of vertex v.
func (g *Graph) OutDegree(v int32) int32 {
	_, c := g.st.Dims()
	if v < 0 || int(v) >= c {
		return 0
	}
	return matrix.OutDegreesOf(g.st)[v]
}

// NewGraph builds a graph with n vertices from an edge list. Duplicate
// edges have their weights combined by addition.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	coords := make([]matrix.Coord, len(edges))
	for i, e := range edges {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		// Transposed adjacency: row = destination, col = source.
		coords[i] = matrix.Coord{Row: e.Dst, Col: e.Src, Val: w}
	}
	m, err := matrix.NewCOO(n, n, coords)
	if err != nil {
		return nil, fmt.Errorf("cosparse: %w", err)
	}
	return &Graph{st: m}, nil
}

// LoadEdgeList reads a SNAP-style "src dst [weight]" edge list
// ('#'/'%' comments ignored, ids compacted to [0, n)).
func LoadEdgeList(r io.Reader, undirected bool) (*Graph, error) {
	m, err := gen.ReadEdgeList(r, undirected)
	if err != nil {
		return nil, err
	}
	return &Graph{st: m}, nil
}

// WriteEdgeList writes the graph as a SNAP-style edge list, streaming
// row by row from the resident store — no uncompressed copy of a
// compressed graph is ever materialized.
func (g *Graph) WriteEdgeList(w io.Writer, header string) error {
	return gen.WriteEdgeListStore(w, g.st, header)
}

// GenerateUniform creates an n-vertex graph with ~edges uniformly
// random edges, deterministically from seed.
func GenerateUniform(n, edges int, mode ValueMode, seed uint64) (*Graph, error) {
	if n <= 0 || edges < 0 {
		return nil, fmt.Errorf("cosparse: invalid size %d/%d", n, edges)
	}
	return &Graph{st: gen.Uniform(n, edges, mode.gen(), seed)}, nil
}

// GeneratePowerLaw creates an n-vertex graph with ~edges edges whose
// degree distribution follows a power law (Chung–Lu), the shape of
// social networks.
func GeneratePowerLaw(n, edges int, mode ValueMode, seed uint64) (*Graph, error) {
	if n <= 0 || edges < 0 {
		return nil, fmt.Errorf("cosparse: invalid size %d/%d", n, edges)
	}
	return &Graph{st: gen.PowerLaw(n, edges, 0.55, mode.gen(), seed)}, nil
}

// GenerateSuite creates the named stand-in from the paper's Table III
// suite ("livejournal", "pokec", "youtube", "twitter", "vsp"), scaled
// down by the given factor (1 = published size).
func GenerateSuite(name string, scale int, mode ValueMode, seed uint64) (*Graph, error) {
	spec, err := gen.SpecByName(name)
	if err != nil {
		return nil, err
	}
	return &Graph{st: spec.Build(scale, mode.gen(), seed)}, nil
}

// System is the simulated machine geometry, written Tiles×PEsPerTile in
// the paper (e.g. 16×16).
type System struct {
	Tiles      int
	PEsPerTile int
}

// String formats the geometry as the paper writes it.
func (s System) String() string { return fmt.Sprintf("%dx%d", s.Tiles, s.PEsPerTile) }

// Software forces or frees the per-iteration software choice.
type Software int

const (
	// AutoSoftware lets the decision tree choose IP or OP.
	AutoSoftware Software = iota
	// InnerProduct forces IP.
	InnerProduct
	// OuterProduct forces OP.
	OuterProduct
)

// Hardware forces or frees the per-iteration memory configuration.
type Hardware int

const (
	// AutoHardware lets the decision tree choose.
	AutoHardware Hardware = iota
	// ForceSC pins L1 shared cache + L2 shared cache.
	ForceSC
	// ForceSCS pins L1 shared cache+SPM + L2 shared cache.
	ForceSCS
	// ForcePC pins L1 private cache + L2 private cache.
	ForcePC
	// ForcePS pins L1 private SPM + L2 private cache.
	ForcePS
)

// Backend selects the execution substrate for an Engine. Both backends
// run the identical kernel pass bodies, so algorithm results are
// bit-identical across them; only the cost accounting differs.
type Backend int

const (
	// SimBackend runs the kernels on the trace-driven cycle simulator —
	// the paper reproduction, with deterministic cycle counts and
	// energy (the default).
	SimBackend Backend = iota
	// NativeBackend runs the same kernels goroutine-parallel across
	// GOMAXPROCS host workers and reports wall-clock durations instead
	// of cycles.
	NativeBackend
)

// String returns the backend's flag/metric spelling.
func (b Backend) String() string {
	if b == NativeBackend {
		return "native"
	}
	return "sim"
}

// ParseBackend parses a -backend flag or job-request value. The empty
// string selects the sim default.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "sim":
		return SimBackend, nil
	case "native":
		return NativeBackend, nil
	}
	return 0, fmt.Errorf("cosparse: unknown backend %q (want \"sim\" or \"native\")", s)
}

// Option customizes an Engine.
type Option func(*runtime.Options)

// WithBackend selects the execution backend (default SimBackend).
func WithBackend(b Backend) Option {
	return func(o *runtime.Options) {
		if b == NativeBackend {
			o.Backend = exec.Native()
		} else {
			o.Backend = exec.Sim()
		}
	}
}

// WithSoftware forces the software configuration.
func WithSoftware(s Software) Option {
	return func(o *runtime.Options) {
		switch s {
		case InnerProduct:
			o.SW = runtime.ForceIP
		case OuterProduct:
			o.SW = runtime.ForceOP
		default:
			o.SW = runtime.AutoSW
		}
	}
}

// WithHardware forces the hardware configuration.
func WithHardware(h Hardware) Option {
	return func(o *runtime.Options) {
		switch h {
		case ForceSC:
			o.HW = runtime.ForceSC
		case ForceSCS:
			o.HW = runtime.ForceSCS
		case ForcePC:
			o.HW = runtime.ForcePC
		case ForcePS:
			o.HW = runtime.ForcePS
		default:
			o.HW = runtime.AutoHW
		}
	}
}

// WithTraceCap bounds the per-iteration trace kept on reports: runs
// longer than n iterations retain only the most recent n entries
// (Report.TraceDropped counts the rest; cycle and energy totals stay
// exact). 0 keeps the default bound, negative keeps every iteration.
func WithTraceCap(n int) Option {
	return func(o *runtime.Options) { o.TraceCap = n }
}

// WithIterationHook installs fn at every iteration boundary, right
// after the context check and before the SpMV is issued. A non-nil
// return stops the run like a cancelled context: the Context entry
// points return the partial report together with the (wrapped) error.
// The serving layer uses this to thread fault injection and health
// checks through the simulated engine's run path.
func WithIterationHook(fn func(iter int) error) Option {
	return func(o *runtime.Options) { o.IterHook = fn }
}

// Engine binds a Graph to a simulated machine and drives the
// reconfigurable SpMV runtime. An Engine is safe for concurrent use:
// it is read-only after New, and every run — any algorithm, solo or
// batched, on either backend — owns its own working state, so
// concurrent runs return exactly what they would return alone.
type Engine struct {
	fw        *runtime.Framework
	sys       System
	simulated bool
}

// New builds an Engine for the graph on the given system geometry.
func New(g *Graph, sys System, opts ...Option) (*Engine, error) {
	o := runtime.Options{Geometry: sim.Geometry{Tiles: sys.Tiles, PEsPerTile: sys.PEsPerTile}}
	for _, fn := range opts {
		fn(&o)
	}
	fw, err := runtime.NewFromStore(g.st, o)
	if err != nil {
		return nil, err
	}
	simulated := o.Backend == nil || o.Backend.Simulated()
	return &Engine{fw: fw, sys: sys, simulated: simulated}, nil
}

// IterationStat describes one algorithm iteration (one SpMV).
type IterationStat struct {
	Iter         int
	FrontierSize int
	Density      float64
	Software     string // "IP" or "OP"
	Hardware     string // "SC", "SCS", "PC", "PS"
	Reconfigured bool
	Cycles       int64
	EnergyJ      float64

	// Phase breakdown of Cycles: the SpMV kernel itself, the merge of
	// its contributions into the value vector, and the sparse↔dense
	// frontier format conversion charged when the software
	// configuration flips (§III-D2).
	KernelCycles int64 `json:",omitempty"`
	MergeCycles  int64 `json:",omitempty"`
	ConvCycles   int64 `json:",omitempty"`
	// Memory-system signals for this iteration: cycles PEs spent
	// stalled on memory and HBM lines read.
	StallCycles int64 `json:",omitempty"`
	HBMLines    int64 `json:",omitempty"`

	// Wall-clock durations (nanoseconds in JSON), filled by the native
	// backend instead of the cycle fields above; Wall is the iteration
	// total, the phase fields mirror Kernel/Merge/ConvCycles.
	Wall       time.Duration `json:",omitempty"`
	KernelWall time.Duration `json:",omitempty"`
	MergeWall  time.Duration `json:",omitempty"`
	ConvWall   time.Duration `json:",omitempty"`
}

// MemoryStats is the run-level memory-system breakdown: cache hit
// rates, HBM traffic split by direction, queueing delay, and stall
// totals, rolled up from the simulator's per-PE counters.
type MemoryStats struct {
	L1HitRate            float64
	L2HitRate            float64
	HBMReadLines         int64
	HBMWriteLines        int64
	HBMReadQueuedCycles  int64
	HBMWriteQueuedCycles int64
	AvgReadQueueCycles   float64
	AvgWriteQueueCycles  float64
	Loads                int64
	Stores               int64
	StreamLoads          int64
	Prefetches           int64
	Writebacks           int64
	StallCycles          int64
	ReconfigCycles       int64
}

// Report summarizes an algorithm run on the simulated hardware.
//
// Iterations is bounded by the engine's trace cap (WithTraceCap): when
// a run exceeds it, only the most recent entries are kept,
// TotalIterations still counts every iteration executed, and
// TraceDropped how many fell out of the window. TotalCycles, EnergyJ
// and Memory are exact regardless of truncation.
type Report struct {
	Algorithm   string
	System      System
	Iterations  []IterationStat
	TotalCycles int64
	Seconds     float64
	EnergyJ     float64
	AvgPowerW   float64

	// Backend names the execution substrate ("sim" or "native"); empty
	// on reports serialized before backends existed (≡ "sim"). Under
	// the native backend TotalCycles/Seconds/EnergyJ are zero and
	// WallSeconds carries measured host wall-clock kernel time.
	Backend     string  `json:",omitempty"`
	WallSeconds float64 `json:",omitempty"`

	TotalIterations int          `json:",omitempty"`
	TraceDropped    int          `json:",omitempty"`
	Memory          *MemoryStats `json:",omitempty"`

	// Resumed is set when the run restarted from a checkpoint (see
	// ContextWithCheckpoint); ResumedIteration is the iteration it
	// picked up at. Totals and the trace cover the whole logical run.
	Resumed          bool `json:",omitempty"`
	ResumedIteration int  `json:",omitempty"`
}

// Summary returns a one-paragraph human-readable digest.
func (r *Report) Summary() string {
	var sb strings.Builder
	iters := len(r.Iterations)
	if r.TotalIterations > iters {
		iters = r.TotalIterations
	}
	if r.Backend == "native" {
		fmt.Fprintf(&sb, "%s on %s (native backend): %d iterations, %.3g s wall",
			r.Algorithm, r.System, iters, r.WallSeconds)
	} else {
		fmt.Fprintf(&sb, "%s on %s: %d iterations, %d cycles (%.3g s @ 1 GHz), %.3g J, %.3g W avg",
			r.Algorithm, r.System, iters, r.TotalCycles, r.Seconds, r.EnergyJ, r.AvgPowerW)
	}
	reconfigs := 0
	for _, it := range r.Iterations {
		if it.Reconfigured {
			reconfigs++
		}
	}
	fmt.Fprintf(&sb, ", %d reconfigurations", reconfigs)
	return sb.String()
}

// Trace renders the per-iteration decision table (a Fig. 9-style view).
// The cost column shows simulated cycles, or wall-clock time on the
// native backend.
func (r *Report) Trace() string {
	native := r.Backend == "native"
	var sb strings.Builder
	unit := "cycles"
	if native {
		unit = "wall"
	}
	fmt.Fprintf(&sb, "iter  frontier  density   config  reconfig  %s\n", unit)
	for _, it := range r.Iterations {
		mark := ""
		if it.Reconfigured {
			mark = "*"
		}
		cost := fmt.Sprintf("%d", it.Cycles)
		if native {
			cost = it.Wall.String()
		}
		fmt.Fprintf(&sb, "%4d  %8d  %7.3f%%  %-6s  %-8s  %s\n",
			it.Iter, it.FrontierSize, 100*it.Density, it.Software+"/"+it.Hardware, mark, cost)
	}
	return sb.String()
}

// report converts a runtime report; nil (a run refused before its
// first iteration) stays nil.
func (e *Engine) report(rep *runtime.Report) *Report {
	if rep == nil {
		return nil
	}
	out := &Report{
		Algorithm:   rep.Algorithm,
		System:      e.sys,
		TotalCycles: rep.TotalCycles,
		Seconds:     rep.Seconds(),
		EnergyJ:     rep.EnergyJ,
		AvgPowerW:   rep.AvgPowerW(),

		Backend:     rep.Backend,
		WallSeconds: rep.TotalWall.Seconds(),

		TotalIterations: rep.TotalIters,
		TraceDropped:    rep.DroppedIters,

		Resumed:          rep.Resumed,
		ResumedIteration: rep.ResumedIter,
	}
	if e.simulated {
		// The native backend runs no memory model; only simulated runs
		// carry a meaningful breakdown.
		b := rep.Stats.MemoryBreakdown()
		out.Memory = &MemoryStats{
			L1HitRate:            b.L1HitRate,
			L2HitRate:            b.L2HitRate,
			HBMReadLines:         b.HBMReadLines,
			HBMWriteLines:        b.HBMWriteLines,
			HBMReadQueuedCycles:  b.HBMReadQueued,
			HBMWriteQueuedCycles: b.HBMWriteQueued,
			AvgReadQueueCycles:   b.AvgReadQueueCycles,
			AvgWriteQueueCycles:  b.AvgWriteQueueCycles,
			Loads:                b.Loads,
			Stores:               b.Stores,
			StreamLoads:          b.StreamLoads,
			Prefetches:           b.Prefetches,
			Writebacks:           b.Writebacks,
			StallCycles:          b.StallCycles,
			ReconfigCycles:       b.ReconfigCycles,
		}
	}
	for _, it := range rep.Iters {
		sw := "OP"
		if it.Decision.UseIP {
			sw = "IP"
		}
		out.Iterations = append(out.Iterations, IterationStat{
			Iter:         it.Iter,
			FrontierSize: it.FrontierNNZ,
			Density:      it.Density,
			Software:     sw,
			Hardware:     it.Decision.HW.String(),
			Reconfigured: it.Reconfig,
			Cycles:       it.TotalCycles,
			EnergyJ:      it.EnergyJ,
			KernelCycles: it.KernelCycles,
			MergeCycles:  it.MergeCycles,
			ConvCycles:   it.ConvCycles,
			StallCycles:  it.Stats.StallCycles,
			HBMLines:     it.Stats.HBMLines,
			Wall:         it.TotalWall,
			KernelWall:   it.KernelWall,
			MergeWall:    it.MergeWall,
			ConvWall:     it.ConvWall,
		})
	}
	return out
}

// BFSResult holds BFS parents and levels (-1 = unreachable).
type BFSResult struct {
	Parent []int32
	Level  []int32
}

// The context-free entry points below are their Context forms under
// context.Background() — see engine_context.go.

// BFS runs breadth-first search from src.
func (e *Engine) BFS(src int32) (*BFSResult, *Report, error) {
	return e.BFSContext(context.Background(), src)
}

// SSSP runs single-source shortest paths from src over the stored edge
// weights; unreachable vertices get +Inf.
func (e *Engine) SSSP(src int32) ([]float32, *Report, error) {
	return e.SSSPContext(context.Background(), src)
}

// PageRank runs the damped power iteration for iters iterations.
func (e *Engine) PageRank(iters int, alpha float32) ([]float32, *Report, error) {
	return e.PageRankContext(context.Background(), iters, alpha)
}

// CF runs collaborative-filtering gradient descent (one latent factor
// per vertex) with learning rate beta and regularization lambda.
func (e *Engine) CF(iters int, beta, lambda float32) ([]float32, *Report, error) {
	return e.CFContext(context.Background(), iters, beta, lambda)
}

// PersonalizedPageRank runs personalized PageRank (random walk with
// restart) from the given seed vertex for iters iterations with
// damping alpha: the returned vector is the seed's personalized rank
// distribution. Batches of PPR jobs — one seed per user over one
// shared graph — are the canonical multi-source fusion workload; see
// PersonalizedPageRankBatch.
func (e *Engine) PersonalizedPageRank(seed int32, iters int, alpha float32) ([]float32, *Report, error) {
	return e.PersonalizedPageRankContext(context.Background(), seed, iters, alpha)
}

// SpMV computes one y = G.T·x for a sparse input vector given as
// (indices, values) pairs, through the full reconfigurable path.
func (e *Engine) SpMV(idx []int32, val []float32) ([]float32, *Report, error) {
	return e.SpMVContext(context.Background(), idx, val)
}

// Decide exposes the decision tree: the configuration the engine would
// pick for a frontier with the given number of active vertices, on the
// generic OP pass. On the native backend, BFS and SSSP (on weights that
// are finite and non-negative) run a heap-free push and switch to IP at
// a higher, separately fitted density, so their runs can pick OP where
// Decide answers IP.
func (e *Engine) Decide(frontierSize int) (software, hardware string) {
	d := e.fw.Decide(frontierSize)
	sw := "OP"
	if d.UseIP {
		sw = "IP"
	}
	return sw, d.HW.String()
}

// Edges returns a copy of the graph's edge list (source, destination,
// weight), in destination-major order.
func (g *Graph) Edges() []Edge {
	r, _ := g.st.Dims()
	out := make([]Edge, 0, g.st.NNZ())
	g.st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		// Stored transposed: row = destination, col = source.
		out = append(out, Edge{Src: col, Dst: row, Weight: val})
	})
	return out
}

// DensityTrace renders the report's frontier-density wave as a compact
// ASCII strip — one column per iteration, height by density, the chosen
// configuration underneath (the visual shape of the paper's Fig. 9).
func (r *Report) DensityTrace() string {
	if len(r.Iterations) == 0 {
		return "(no iterations)\n"
	}
	const rows = 8
	var maxD float64
	for _, it := range r.Iterations {
		if it.Density > maxD {
			maxD = it.Density
		}
	}
	if maxD == 0 {
		maxD = 1
	}
	var sb strings.Builder
	for row := rows; row >= 1; row-- {
		if row == rows {
			fmt.Fprintf(&sb, "%6.1f%% |", 100*maxD)
		} else {
			sb.WriteString("        |")
		}
		for _, it := range r.Iterations {
			h := int(it.Density/maxD*float64(rows) + 0.5)
			if h >= row {
				sb.WriteString("#")
			} else {
				sb.WriteString(" ")
			}
		}
		sb.WriteString("\n")
	}
	sb.WriteString("        +")
	sb.WriteString(strings.Repeat("-", len(r.Iterations)))
	sb.WriteString("\n     sw  ")
	for _, it := range r.Iterations {
		sb.WriteString(string(it.Software[0])) // I or O
	}
	sb.WriteString("\n     hw  ")
	for _, it := range r.Iterations {
		c := "c"
		if strings.HasSuffix(it.Hardware, "S") && it.Hardware != "SC" {
			c = "s" // a scratchpad configuration (SCS or PS)
		}
		sb.WriteString(c)
	}
	sb.WriteString("\n         (sw: I=inner product, O=outer product; hw: s=scratchpad, c=cache)\n")
	return sb.String()
}

// Betweenness computes single-source betweenness centrality (Brandes'
// dependency accumulation on the BFS DAG) as level-synchronized SpMV
// sweeps — a worked demonstration that algorithms beyond the paper's
// four map onto the same reconfigurable machinery. BC[v] is zero for
// the source and for unreachable vertices.
func (e *Engine) Betweenness(src int32) ([]float32, *Report, error) {
	return e.BetweennessContext(context.Background(), src)
}
