package cosparse

import (
	"context"

	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
)

// Context-taking entry points, one per algorithm. Each consults ctx
// once per algorithm iteration, before the SpMV is issued: a cancelled
// or deadline-expired context stops the run between iterations and the
// call returns ctx's error (wrapped) together with the partial report
// covering the iterations that did complete. A fusable algorithm's
// entry is lane 0 of a one-lane call of its batch entry
// (engine_batch.go), so a solo run and a fused lane share one path.

// BFSContext runs breadth-first search from src.
func (e *Engine) BFSContext(ctx context.Context, src int32) (*BFSResult, *Report, error) {
	return lane0(e.BFSBatch([]context.Context{ctx}, []int32{src}))
}

// SSSPContext runs single-source shortest paths from src over the
// stored edge weights; unreachable vertices get +Inf.
func (e *Engine) SSSPContext(ctx context.Context, src int32) ([]float32, *Report, error) {
	return lane0(e.SSSPBatch([]context.Context{ctx}, []int32{src}))
}

// PageRankContext runs the damped power iteration for iters
// iterations.
func (e *Engine) PageRankContext(ctx context.Context, iters int, alpha float32) ([]float32, *Report, error) {
	return lane0(e.PageRankBatch([]context.Context{ctx}, 1, iters, alpha))
}

// PersonalizedPageRankContext runs personalized PageRank (random walk
// with restart) from the given seed vertex for iters iterations with
// damping alpha: the returned vector is the seed's personalized rank
// distribution.
func (e *Engine) PersonalizedPageRankContext(ctx context.Context, seed int32, iters int, alpha float32) ([]float32, *Report, error) {
	return lane0(e.PersonalizedPageRankBatch([]context.Context{ctx}, []int32{seed}, iters, alpha))
}

// CFContext runs collaborative-filtering gradient descent (one latent
// factor per vertex) with learning rate beta and regularization
// lambda.
func (e *Engine) CFContext(ctx context.Context, iters int, beta, lambda float32) ([]float32, *Report, error) {
	return lane0(e.CFBatch([]context.Context{ctx}, 1, iters, beta, lambda))
}

// BetweennessContext computes single-source betweenness centrality
// (Brandes' dependency accumulation on the BFS DAG) as two
// level-synchronized lanes of the ordinary iteration loop — a σ sweep
// forward and a δ sweep over the reversed graph — a worked
// demonstration that algorithms beyond the paper's four map onto the
// same reconfigurable machinery. BC[v] is zero for the source and for
// unreachable vertices.
func (e *Engine) BetweennessContext(ctx context.Context, src int32) ([]float32, *Report, error) {
	vals, rep, err := e.fw.BC(ctx, src)
	return vals, e.report(rep), err
}

// SpMVContext computes one y = G.T·x for a sparse input vector given
// as (indices, values) pairs, through the full reconfigurable path.
func (e *Engine) SpMVContext(ctx context.Context, idx []int32, val []float32) ([]float32, *Report, error) {
	sv, err := matrix.NewSparseVec(e.fw.N(), idx, val)
	if err != nil {
		return nil, nil, err
	}
	y, rep, err := e.fw.SpMV(ctx, sv)
	return y, e.report(rep), err
}

// lane0 unpacks a one-lane batch: how each fusable algorithm's solo
// entry returns its only lane.
func lane0[T, R any](outs []T, reps []R, errs []error) (T, R, error) {
	return outs[0], reps[0], errs[0]
}

// results converts a batched run's per-lane slices into the public
// types. The runtime returns a lane's values only on success, and its
// report whenever the lane produced one — on error, the partial report
// of the iterations that completed.
func (e *Engine) results(vals []matrix.Dense, reps []*runtime.Report, errs []error) ([][]float32, []*Report, []error) {
	outs := make([][]float32, len(vals))
	for i, v := range vals {
		outs[i] = v
	}
	return outs, e.reports(reps), errs
}

func (e *Engine) reports(reps []*runtime.Report) []*Report {
	out := make([]*Report, len(reps))
	for i, rep := range reps {
		out[i] = e.report(rep)
	}
	return out
}
