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

// BFS runs breadth-first search from src using the Table I mapping:
// frontier values carry vertex labels and destinations adopt the
// minimum proposing label as their parent.
func (f *Framework) BFS(src int32) (*BFSResult, *Report, error) {
	return f.BFSContext(context.Background(), src)
}

// BFSContext is BFS with per-iteration cancellation: a cancelled or
// deadline-expired ctx stops the traversal between SpMV iterations,
// returning ctx's error.
func (f *Framework) BFSContext(ctx context.Context, src int32) (*BFSResult, *Report, error) {
	l, res, err := f.bfsLane(ctx, src)
	vals, rep, err := f.runSolo(l, err)
	if err != nil {
		return nil, rep, err
	}
	res.setParents(vals)
	return res, rep, nil
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

	res := &BFSResult{Parent: make([]int32, n), Level: make([]int32, n)}
	for i := range res.Parent {
		res.Parent[i] = -1
		res.Level[i] = -1
	}
	res.Parent[src] = src
	res.Level[src] = 0

	// The level array is incremental state the loop cannot see (it
	// lives outside vals), so it rides in each checkpoint's AuxInt and
	// is restored before the resumed loop observes new frontiers.
	if cc := CheckpointFromContext(ctx); cc != nil && cc.Resume != nil &&
		cc.Resume.Algo == "BFS" && len(cc.Resume.AuxInt) == n {
		copy(res.Level, cc.Resume.AuxInt)
	}

	// Levels fall out of the iteration at which each vertex first joins
	// the frontier, observed through the lane's iteration hook.
	onIter := func(st IterStat, next *matrix.SparseVec) {
		if next != nil {
			for _, v := range next.Idx {
				if res.Level[v] < 0 {
					res.Level[v] = int32(st.Iter) + 1
				}
			}
		}
	}
	aux := func(cp *Checkpoint) {
		cp.AuxInt = append([]int32(nil), res.Level...)
	}
	return f.newLane(ctx, "BFS", ring, semiring.Ctx{}, vals, frontier, f.maxIters(), onIter, aux), res, nil
}

// SSSP runs single-source shortest paths (frontier-based Bellman–Ford,
// the Table I min-plus mapping) from src over the stored edge weights.
// Distances are +Inf for unreachable vertices.
func (f *Framework) SSSP(src int32) (matrix.Dense, *Report, error) {
	return f.SSSPContext(context.Background(), src)
}

// SSSPContext is SSSP with per-iteration cancellation.
func (f *Framework) SSSPContext(ctx context.Context, src int32) (matrix.Dense, *Report, error) {
	return f.runSolo(f.ssspLane(ctx, src))
}

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

// PageRank runs the damped power iteration of Table I for the given
// number of iterations (the paper's PR uses dense vectors throughout).
func (f *Framework) PageRank(iters int, alpha float32) (matrix.Dense, *Report, error) {
	return f.PageRankContext(context.Background(), iters, alpha)
}

// PageRankContext is PageRank with per-iteration cancellation.
func (f *Framework) PageRankContext(ctx context.Context, iters int, alpha float32) (matrix.Dense, *Report, error) {
	return f.runSolo(f.prLane(ctx, iters, alpha))
}

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

// PPR runs personalized PageRank from the given seed vertex: the rank
// vector starts as e_seed and the teleport mass restarts at the seed
// every iteration, so the result is the seed's random-walk-with-restart
// distribution. A batch of PPR runs (one seed per user) over one shared
// graph is the canonical multi-source fusion workload — see PPRBatch.
func (f *Framework) PPR(src int32, iters int, alpha float32) (matrix.Dense, *Report, error) {
	return f.PPRContext(context.Background(), src, iters, alpha)
}

// PPRContext is PPR with per-iteration cancellation.
func (f *Framework) PPRContext(ctx context.Context, src int32, iters int, alpha float32) (matrix.Dense, *Report, error) {
	return f.runSolo(f.pprLane(ctx, src, iters, alpha))
}

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

// CF runs collaborative-filtering gradient descent (one latent factor,
// Table I) for the given number of iterations with learning rate beta
// and regularization lambda.
func (f *Framework) CF(iters int, beta, lambda float32) (matrix.Dense, *Report, error) {
	return f.CFContext(context.Background(), iters, beta, lambda)
}

// CFContext is CF with per-iteration cancellation.
func (f *Framework) CFContext(ctx context.Context, iters int, beta, lambda float32) (matrix.Dense, *Report, error) {
	return f.runSolo(f.cfLane(ctx, iters, beta, lambda))
}

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
// full CoSPARSE path (decision tree, kernel, merge) and returns the
// result along with a one-iteration report. This is the primitive the
// paper's Fig. 8 measures.
func (f *Framework) SpMV(frontier *matrix.SparseVec) (matrix.Dense, *Report, error) {
	return f.SpMVContext(context.Background(), frontier)
}

// SpMVContext is SpMV with cancellation (checked once, before the
// single iteration is issued).
func (f *Framework) SpMVContext(ctx context.Context, frontier *matrix.SparseVec) (matrix.Dense, *Report, error) {
	if frontier.N != f.N() {
		return nil, nil, fmt.Errorf("runtime: SpMV frontier length %d, graph has %d vertices", frontier.N, f.N())
	}
	vals := make(matrix.Dense, f.N())
	return f.runSolo(f.newLane(ctx, "SpMV", semiring.SpMV(), semiring.Ctx{}, vals, frontier.Clone(), 1, nil, nil), nil)
}

// RunCustom drives a user-defined algorithm (a custom Table I row)
// through the full reconfigurable iteration loop: vals holds the
// per-vertex state, frontier the initially active vertices (ignored for
// DenseFrontier semirings, which keep every vertex active). It returns
// the final values and the per-iteration report.
//
// This is the extensibility point the paper describes in §III-D: "end
// users only need to define the key computations to realize a graph
// algorithm".
func (f *Framework) RunCustom(ring semiring.Semiring, ctx semiring.Ctx,
	vals matrix.Dense, frontier *matrix.SparseVec, maxIters int) (matrix.Dense, *Report, error) {
	return f.RunCustomContext(context.Background(), ring, ctx, vals, frontier, maxIters)
}

// RunCustomContext is RunCustom with per-iteration cancellation.
func (f *Framework) RunCustomContext(ctx context.Context, ring semiring.Semiring, sctx semiring.Ctx,
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
	return f.runSolo(f.newLane(ctx, name, ring, sctx, vals.Clone(), frontier, maxIters, nil, nil), nil)
}
