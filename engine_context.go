package cosparse

import (
	"context"

	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
)

// Context-aware entry points. Each variant consults ctx once per
// algorithm iteration, before the SpMV is issued: a cancelled or
// deadline-expired context stops the run between iterations and the
// call returns ctx's error (wrapped) together with the partial report
// covering the iterations that did complete. They are what a serving
// layer (cmd/cosparsed) uses to enforce job deadlines and client
// cancellations without abandoning goroutines mid-kernel.

// BFSContext runs breadth-first search from src under ctx.
func (e *Engine) BFSContext(ctx context.Context, src int32) (*BFSResult, *Report, error) {
	res, rep, err := e.fw.BFSContext(ctx, src)
	return (*BFSResult)(res), e.report(rep), err
}

// SSSPContext runs single-source shortest paths from src under ctx.
func (e *Engine) SSSPContext(ctx context.Context, src int32) ([]float32, *Report, error) {
	return e.result(e.fw.SSSPContext(ctx, src))
}

// PageRankContext runs the damped power iteration under ctx.
func (e *Engine) PageRankContext(ctx context.Context, iters int, alpha float32) ([]float32, *Report, error) {
	return e.result(e.fw.PageRankContext(ctx, iters, alpha))
}

// PersonalizedPageRankContext runs personalized PageRank from seed
// under ctx.
func (e *Engine) PersonalizedPageRankContext(ctx context.Context, seed int32, iters int, alpha float32) ([]float32, *Report, error) {
	return e.result(e.fw.PPRContext(ctx, seed, iters, alpha))
}

// CFContext runs collaborative-filtering gradient descent under ctx.
func (e *Engine) CFContext(ctx context.Context, iters int, beta, lambda float32) ([]float32, *Report, error) {
	return e.result(e.fw.CFContext(ctx, iters, beta, lambda))
}

// BetweennessContext runs single-source betweenness centrality under
// ctx.
func (e *Engine) BetweennessContext(ctx context.Context, src int32) ([]float32, *Report, error) {
	return e.result(e.fw.BCContext(ctx, src))
}

// SpMVContext computes one y = G.T·x under ctx.
func (e *Engine) SpMVContext(ctx context.Context, idx []int32, val []float32) ([]float32, *Report, error) {
	sv, err := matrix.NewSparseVec(e.fw.N(), idx, val)
	if err != nil {
		return nil, nil, err
	}
	return e.result(e.fw.SpMVContext(ctx, sv))
}

// result is where every run's outcome crosses into the public types:
// values only on success, and the report whenever the run produced one
// — on error, the partial report of the iterations that completed.
func (e *Engine) result(vals matrix.Dense, rep *runtime.Report, err error) ([]float32, *Report, error) {
	if err != nil {
		vals = nil
	}
	return vals, e.report(rep), err
}

// results is result for the per-lane slices of a batched run (the
// runtime already leaves a failed lane's values nil).
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
