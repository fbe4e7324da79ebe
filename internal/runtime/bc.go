package runtime

import (
	"context"
	"fmt"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// BC computes single-source betweenness centrality (Brandes' algorithm
// on the unweighted BFS DAG) as two lanes of the ordinary iteration
// loop, each SpMV pass with the usual per-pass IP/OP + SC/SCS/PC/PS
// decisions, reconfiguration charges and frontier conversions:
//
//  1. the σ lane runs a sum ring from {src: 1}. OnceOnly merging keeps
//     settled vertices fixed, so iteration l's frontier is exactly BFS
//     level l carrying its shortest-path counts σ: one sweep yields
//     both σ and the levels;
//  2. the δ lane, on the reversed graph, accumulates the dependencies
//     δ[s] = Σ σ[s]/σ[d] · (1+δ[d]) from the deepest level up, one pass
//     per level, and continues the σ lane's report, trace and iteration
//     count.
//
// Contributions that non-DAG edges deliver off the level being settled
// are masked functionally by the δ lane's convergence hook (the
// simulator conservatively still charges their memory traffic). BC[v]
// is δ[v], zero for the source and unreachable vertices. Checkpoints
// are the lanes' own: the levels ride in AuxInt, and a δ-lane
// checkpoint carries σ in Aux.
//
// This is an extension beyond the paper's four algorithms — the kind of
// addition §III-D advertises the framework makes easy (Ligra ships the
// same algorithm). ctx is consulted between every SpMV pass of both
// lanes.
func (f *Framework) BC(ctx context.Context, src int32) (matrix.Dense, *Report, error) {
	n := f.N()
	if src < 0 || int(src) >= n {
		return nil, nil, fmt.Errorf("runtime: BC source %d out of range [0,%d)", src, n)
	}
	rev, err := f.reversed()
	if err != nil {
		return nil, nil, err
	}
	// Select-and-sum ring shared by both lanes: active sources push
	// their value along every edge; sums accumulate per destination;
	// settled destinations never change.
	ring := semiring.Semiring{
		Name:     "BC",
		Identity: 0,
		MatOp: func(_, vsrc float32, _ semiring.Ctx) float32 {
			return vsrc
		},
		Reduce:     func(a, b float32) float32 { return a + b },
		Improving:  func(next, cur float32) bool { return next != cur },
		MatOpCost:  1,
		ReduceCost: 1,
		OnceOnly:   true,
		MergePrev:  false,
	}

	level := startLevels(ctx, "BC", n, src)
	var sigma matrix.Dense
	var fwd *laneState // the σ lane, nil when resuming inside the δ lane
	cc := CheckpointFromContext(ctx)
	if cc != nil && cc.Resume != nil && cc.Resume.Algo == "BC" && cc.Resume.Aux != nil {
		cp := cc.Resume
		if len(cp.Aux) != n || len(cp.AuxInt) != n {
			return nil, nil, fmt.Errorf("runtime: BC checkpoint covers %d vertices, graph has %d", len(cp.Aux), n)
		}
		sigma = cp.Aux.Clone()
	} else {
		sigma = make(matrix.Dense, n)
		sigma[src] = 1
		frontier := &matrix.SparseVec{N: n, Idx: []int32{src}, Val: []float32{1}}
		aux := func(cp *Checkpoint) { cp.AuxInt = append([]int32(nil), level...) }
		fwd = f.newLane(ctx, "BC", ring, semiring.Ctx{}, sigma, frontier, f.maxIters(), levelStep(level), aux)
		f.runLanes([]*laneState{fwd})
		if fwd.err != nil {
			return nil, fwd.rep, fwd.err
		}
		sigma = fwd.vals
	}

	maxLevel := int32(0)
	for _, l := range level {
		maxLevel = max(maxLevel, l)
	}
	byLevel := make([][]int32, maxLevel+1)
	for v, l := range level {
		if l >= 0 {
			byLevel[l] = append(byLevel[l], int32(v))
		}
	}
	// levelFrontier is level l's δ-lane frontier: (1+δ)/σ per vertex.
	levelFrontier := func(l int32, delta matrix.Dense) *matrix.SparseVec {
		idx := append([]int32(nil), byLevel[l]...)
		val := make([]float32, len(idx))
		for k, v := range idx {
			if sigma[v] > 0 {
				val[k] = (1 + delta[v]) / sigma[v]
			}
		}
		return &matrix.SparseVec{N: n, Idx: idx, Val: val}
	}

	// The σ lane ends after maxLevel+1 iterations (its last frontier,
	// the deepest level, settles nothing), so δ-lane iteration it
	// settles level maxLevel-1-(it-base) from the frontier one level
	// deeper.
	base := int(maxLevel) + 1
	step := func(st IterStat, delta matrix.Dense, changed *matrix.SparseVec) *matrix.SparseVec {
		l := maxLevel - 1 - int32(st.Iter-base)
		// OnceOnly lets a delivery through only where δ was still 0, so
		// zeroing a changed vertex off level l undoes a non-DAG edge's.
		for _, v := range changed.Idx {
			if level[v] != l {
				delta[v] = 0
			}
		}
		for _, v := range byLevel[l] {
			// δ[v] = σ[v] · Σ (1+δ[d])/σ[d] over DAG successors d.
			delta[v] = sigma[v] * delta[v]
		}
		if l == 0 {
			return nil
		}
		return levelFrontier(l, delta)
	}
	aux := func(cp *Checkpoint) {
		cp.AuxInt = append([]int32(nil), level...)
		cp.Aux = sigma.Clone()
	}
	delta := make(matrix.Dense, n)
	back := rev.freshLane(ctx, "BC", ring, semiring.Ctx{}, delta, levelFrontier(maxLevel, delta), base+int(maxLevel), step, aux)
	if fwd != nil {
		back.continueFrom(fwd)
	} else {
		back.resume(cc.Resume, n)
	}
	rev.runLanes([]*laneState{back})
	if back.err != nil {
		return nil, back.rep, back.err
	}
	back.vals[src] = 0
	return back.vals, back.rep, nil
}
