package cosparse

import "context"

// Batched entry points: k compatible jobs of the same algorithm run as
// one fused multi-vector (SpMM) pass over the shared graph. Slot i of
// every returned slice corresponds to input i; each lane's result is
// bit-identical to the same input run alone (the matching XContext
// entry, a one-lane call), each lane gets its own report, and a
// cancelled or failed lane (errs[i] non-nil, result nil) does not
// disturb the others. ctxs may be shorter than the lane count (or hold
// nils) — missing entries default to context.Background(). The
// service's coalescer runs every job through these five entries.

// BFSBatch runs one BFS lane per source as a fused run.
func (e *Engine) BFSBatch(ctxs []context.Context, srcs []int32) ([]*BFSResult, []*Report, []error) {
	res, reps, errs := e.fw.BFSBatch(ctxs, srcs)
	out := make([]*BFSResult, len(res))
	for i, r := range res {
		out[i] = (*BFSResult)(r)
	}
	return out, e.reports(reps), errs
}

// SSSPBatch runs one SSSP lane per source as a fused run.
func (e *Engine) SSSPBatch(ctxs []context.Context, srcs []int32) ([][]float32, []*Report, []error) {
	return e.results(e.fw.SSSPBatch(ctxs, srcs))
}

// PageRankBatch runs k PageRank lanes as a fused run (k concurrent
// requests served for one amortized matrix pass).
func (e *Engine) PageRankBatch(ctxs []context.Context, k, iters int, alpha float32) ([][]float32, []*Report, []error) {
	return e.results(e.fw.PageRankBatch(ctxs, k, iters, alpha))
}

// PersonalizedPageRankBatch runs one PPR lane per seed as a fused run
// — the canonical multi-source workload (one personalization vector
// per user over one shared graph).
func (e *Engine) PersonalizedPageRankBatch(ctxs []context.Context, seeds []int32, iters int, alpha float32) ([][]float32, []*Report, []error) {
	return e.results(e.fw.PPRBatch(ctxs, seeds, iters, alpha))
}

// CFBatch runs k collaborative-filtering lanes as a fused run.
func (e *Engine) CFBatch(ctxs []context.Context, k, iters int, beta, lambda float32) ([][]float32, []*Report, []error) {
	return e.results(e.fw.CFBatch(ctxs, k, iters, beta, lambda))
}
