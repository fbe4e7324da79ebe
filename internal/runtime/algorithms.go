package runtime

import (
	"context"
	"fmt"
	"math"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// BFSResult holds the output of a breadth-first search.
type BFSResult struct {
	// Parent[v] is the BFS parent of v, v's own id for the source, or
	// -1 for unreachable vertices.
	Parent []int32
	// Level[v] is the BFS depth of v, or -1 for unreachable vertices.
	Level []int32
}

// setParents fills Parent from the converged label vector: every
// reached vertex's value is the label of the vertex that claimed it.
func (r *BFSResult) setParents(vals matrix.Dense) {
	for i, v := range vals {
		if !math.IsInf(float64(v), 1) {
			r.Parent[i] = int32(v)
		}
	}
}

// BFS runs one breadth-first search from src: a one-lane BFSBatch.
// Its only caller is benchmark/probes.go; every other solo BFS calls
// BFSBatch with one source.
func (f *Framework) BFS(src int32) (*BFSResult, *Report, error) {
	return lane0(f.BFSBatch(nil, []int32{src}))
}

// bfsLane builds the BFS lane for src and the result its iteration
// observer fills in.
func (f *Framework) bfsLane(ctx context.Context, src int32) (*laneState, *BFSResult, error) {
	n := f.N()
	if src < 0 || int(src) >= n {
		return nil, nil, fmt.Errorf("runtime: BFS source %d out of range [0,%d)", src, n)
	}
	ring := semiring.BFS()
	vals := make(matrix.Dense, n)
	for i := range vals {
		vals[i] = ring.Identity
	}
	vals[src] = float32(src)
	frontier := &matrix.SparseVec{N: n, Idx: []int32{src}, Val: []float32{float32(src)}}

	res := &BFSResult{Parent: make([]int32, n), Level: startLevels(ctx, "BFS", n, src)}
	for i := range res.Parent {
		res.Parent[i] = -1
	}
	res.Parent[src] = src
	aux := func(cp *Checkpoint) {
		cp.AuxInt = append([]int32(nil), res.Level...)
	}
	return f.newLane(ctx, "BFS", ring, semiring.Ctx{}, vals, frontier, f.maxIters(), levelStep(res.Level), aux), res, nil
}

// startLevels is the level array a level-synchronous traversal (BFS,
// BC's σ sweep) from src starts with: -1 for unreached vertices, 0 for
// src. The array is state the loop cannot see (it lives outside vals),
// so it rides in each checkpoint's AuxInt and is restored from a
// resume checkpoint of algo before the loop observes new frontiers.
func startLevels(ctx context.Context, algo string, n int, src int32) []int32 {
	level := make([]int32, n)
	if cc := CheckpointFromContext(ctx); cc != nil && cc.Resume != nil &&
		cc.Resume.Algo == algo && len(cc.Resume.AuxInt) == n {
		copy(level, cc.Resume.AuxInt)
		return level
	}
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	return level
}

// levelStep is the convergence hook of a level-synchronous traversal:
// a vertex's level is the iteration at which it first joins the
// frontier, plus one. The frontier runs on unchanged.
func levelStep(level []int32) stepFunc {
	return func(st IterStat, _ matrix.Dense, next *matrix.SparseVec) *matrix.SparseVec {
		if next != nil {
			for _, v := range next.Idx {
				if level[v] < 0 {
					level[v] = int32(st.Iter) + 1
				}
			}
		}
		return next
	}
}

// ssspLane builds one single-source shortest-paths lane from src:
// frontier-based Bellman–Ford, the Table I min-plus mapping, over the
// stored edge weights. Unreachable vertices keep +Inf.
func (f *Framework) ssspLane(ctx context.Context, src int32) (*laneState, error) {
	n := f.N()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("runtime: SSSP source %d out of range [0,%d)", src, n)
	}
	ring := semiring.SSSP()
	vals := make(matrix.Dense, n)
	for i := range vals {
		vals[i] = ring.Identity
	}
	vals[src] = 0
	frontier := &matrix.SparseVec{N: n, Idx: []int32{src}, Val: []float32{0}}
	return f.newLane(ctx, "SSSP", ring, semiring.Ctx{}, vals, frontier, f.maxIters(), nil, nil), nil
}

// prLane builds one lane of the damped power iteration of Table I for
// iters iterations (the paper's PR uses dense vectors throughout).
func (f *Framework) prLane(ctx context.Context, iters int, alpha float32) (*laneState, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("runtime: PageRank iterations must be positive, got %d", iters)
	}
	return f.newLane(ctx, "PR", semiring.PR(), semiring.Ctx{Alpha: alpha}, uniformRanks(f.N()), nil, iters, nil, nil), nil
}

// uniformRanks is PageRank's starting vector.
func uniformRanks(n int) matrix.Dense {
	vals := make(matrix.Dense, n)
	for i := range vals {
		vals[i] = 1 / float32(n)
	}
	return vals
}

// pprLane builds one personalized-PageRank lane from seed src: the
// rank vector starts as e_src and the teleport mass restarts at src
// every iteration, so the result is src's random-walk-with-restart
// distribution.
func (f *Framework) pprLane(ctx context.Context, src int32, iters int, alpha float32) (*laneState, error) {
	n := f.N()
	if src < 0 || int(src) >= n {
		return nil, fmt.Errorf("runtime: PPR seed %d out of range [0,%d)", src, n)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("runtime: PPR iterations must be positive, got %d", iters)
	}
	vals := make(matrix.Dense, n)
	vals[src] = 1
	return f.newLane(ctx, "PPR", semiring.PPR(), semiring.Ctx{Alpha: alpha, Seed: src}, vals, nil, iters, nil, nil), nil
}

// cfLane builds one collaborative-filtering gradient-descent lane (one
// latent factor, Table I) for iters iterations with learning rate beta
// and regularization lambda.
func (f *Framework) cfLane(ctx context.Context, iters int, beta, lambda float32) (*laneState, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("runtime: CF iterations must be positive, got %d", iters)
	}
	vals := make(matrix.Dense, f.N())
	for i := range vals {
		// Deterministic small positive init, spread across vertices.
		vals[i] = 0.1 + 0.01*float32(i%17)
	}
	return f.newLane(ctx, "CF", semiring.CF(), semiring.Ctx{Beta: beta, Lambda: lambda}, vals, nil, iters, nil, nil), nil
}

// SpMV runs one plain (+,×) sparse matrix–vector product through the
// full CoSPARSE path (decision tree, kernel, merge) as a one-lane run
// and returns the result along with a one-iteration report. ctx is
// checked once, before the single iteration is issued. This is the
// primitive the paper's Fig. 8 measures.
func (f *Framework) SpMV(ctx context.Context, frontier *matrix.SparseVec) (matrix.Dense, *Report, error) {
	if frontier.N != f.N() {
		return nil, nil, fmt.Errorf("runtime: SpMV frontier length %d, graph has %d vertices", frontier.N, f.N())
	}
	return lane0(f.runBatch(1, func(int) (*laneState, error) {
		return f.newLane(ctx, "SpMV", semiring.SpMV(), semiring.Ctx{}, make(matrix.Dense, f.N()), frontier.Clone(), 1, nil, nil), nil
	}))
}

// RunCustom drives a user-defined algorithm (a custom Table I row)
// through the full reconfigurable iteration loop as a one-lane run
// under ctx: vals holds the per-vertex state, frontier the initially
// active vertices (ignored for DenseFrontier semirings, which keep
// every vertex active). It returns the final values and the
// per-iteration report.
//
// This is the extensibility point the paper describes in §III-D: "end
// users only need to define the key computations to realize a graph
// algorithm".
func (f *Framework) RunCustom(ctx context.Context, ring semiring.Semiring, sctx semiring.Ctx,
	vals matrix.Dense, frontier *matrix.SparseVec, maxIters int) (matrix.Dense, *Report, error) {
	if len(vals) != f.N() {
		return nil, nil, fmt.Errorf("runtime: RunCustom values length %d, graph has %d vertices", len(vals), f.N())
	}
	if ring.MatOp == nil || ring.Reduce == nil || ring.Improving == nil {
		return nil, nil, fmt.Errorf("runtime: RunCustom semiring must define MatOp, Reduce and Improving")
	}
	if !ring.DenseFrontier {
		if frontier == nil {
			return nil, nil, fmt.Errorf("runtime: RunCustom requires an initial frontier for sparse-frontier algorithms")
		}
		if err := frontier.Validate(); err != nil {
			return nil, nil, err
		}
		if frontier.N != f.N() {
			return nil, nil, fmt.Errorf("runtime: RunCustom frontier length %d, graph has %d vertices", frontier.N, f.N())
		}
		frontier = frontier.Clone()
	}
	if maxIters <= 0 {
		maxIters = f.maxIters()
	}
	name := ring.Name
	if name == "" {
		name = "custom"
	}
	return lane0(f.runBatch(1, func(int) (*laneState, error) {
		return f.newLane(ctx, name, ring, sctx, vals.Clone(), frontier, maxIters, nil, nil), nil
	}))
}
