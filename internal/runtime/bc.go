package runtime

import (
	"context"
	"fmt"
	"time"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// BC computes single-source betweenness centrality (Brandes' algorithm
// on the unweighted BFS DAG) through the reconfigurable SpMV machinery:
//
//  1. a BFS establishes levels;
//  2. a forward sweep of level-synchronized SpMV passes accumulates the
//     shortest-path counts σ (each pass pushes level-l σ values to
//     level-(l+1) vertices; OnceOnly merging keeps non-DAG edges from
//     contaminating settled vertices);
//  3. a backward sweep over the reversed graph accumulates the
//     dependencies δ[s] = Σ σ[s]/σ[d] · (1+δ[d]) from the deepest level
//     up, each pass again one SpMV invocation with the usual per-pass
//     IP/OP + SC/SCS/PC/PS decisions.
//
// Contributions that non-DAG edges deliver to not-yet-processed leaves
// are masked functionally between passes (the simulator conservatively
// still charges their memory traffic). BC[v] is δ[v], zero for the
// source and unreachable vertices.
//
// This is an extension beyond the paper's four algorithms — the kind of
// addition §III-D advertises the framework makes easy (Ligra ships the
// same algorithm).
func (f *Framework) BC(src int32) (matrix.Dense, *Report, error) {
	return f.BCContext(context.Background(), src)
}

// BCContext is BC with per-iteration cancellation: ctx is consulted
// between every SpMV pass of all three phases.
func (f *Framework) BCContext(ctx context.Context, src int32) (matrix.Dense, *Report, error) {
	n := f.N()
	if src < 0 || int(src) >= n {
		return nil, nil, fmt.Errorf("runtime: BC source %d out of range [0,%d)", src, n)
	}

	total := &Report{Algorithm: "BC", Geometry: f.opts.Geometry, Backend: f.opts.Backend.Name()}
	acc := func(rep *Report) { total.absorb(rep, total.TotalIters, f.opts.ringCap()) }

	// BC checkpoints at SpMV-pass granularity across its sweeps, with
	// Phase/PhaseLevel locating the next pass and the level array (the
	// phase-1 output both sweeps index by) in AuxInt. The inner runs
	// get the checkpoint config stripped — a one-iteration sub-run
	// must not snapshot itself.
	cc := CheckpointFromContext(ctx)
	inner := ctx
	var resume *Checkpoint
	if cc != nil {
		inner = ContextWithCheckpoint(ctx, nil)
		if cp := cc.Resume; cp != nil {
			if cp.Algo != "BC" {
				return nil, nil, fmt.Errorf("runtime: checkpoint was taken by %q, cannot resume BC", cp.Algo)
			}
			if int(cp.N) != n || len(cp.AuxInt) != n {
				return nil, nil, fmt.Errorf("runtime: BC checkpoint covers %d vertices, graph has %d", cp.N, n)
			}
			if cp.Phase != 2 && cp.Phase != 3 {
				return nil, nil, fmt.Errorf("runtime: BC checkpoint names unknown phase %d", cp.Phase)
			}
			resume = cp
		}
	}
	passes := 0
	var level []int32
	sink := func(cp *Checkpoint) error {
		cp.Algo = "BC"
		cp.N = int32(n)
		cp.Iter = int32(passes)
		cp.AuxInt = append([]int32(nil), level...)
		cp.TotalCycles = total.TotalCycles
		cp.TotalWallNs = int64(total.TotalWall)
		cp.EnergyJ = total.EnergyJ
		cp.Stats = total.Stats
		cp.TotalIters = int32(total.TotalIters)
		cp.DroppedIters = int32(total.DroppedIters)
		cp.Trace = append([]IterStat(nil), total.Iters...)
		return cc.Sink(cp)
	}
	due := func() bool {
		return cc != nil && cc.Sink != nil && cc.Every > 0 && passes%cc.Every == 0
	}

	// ---- Phase 1: levels ----
	if resume != nil {
		level = append([]int32(nil), resume.AuxInt...)
		passes = int(resume.Iter)
		total.Iters = append([]IterStat(nil), resume.Trace...)
		total.TotalIters = int(resume.TotalIters)
		total.DroppedIters = int(resume.DroppedIters)
		total.TotalCycles = resume.TotalCycles
		total.TotalWall = time.Duration(resume.TotalWallNs)
		total.EnergyJ = resume.EnergyJ
		total.Stats = resume.Stats
		total.Resumed, total.ResumedIter = true, passes
	} else {
		bres, rep, err := f.BFSContext(inner, src)
		if err != nil {
			return nil, nil, err
		}
		acc(rep)
		level = bres.Level
	}
	maxLevel := int32(0)
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for v, l := range level {
		if l >= 0 {
			byLevel[l] = append(byLevel[l], int32(v))
		}
	}

	// Select-and-sum ring shared by both sweeps: active sources push
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

	// ---- Phase 2: shortest-path counts σ (forward) ----
	sigma := make(matrix.Dense, n)
	sigma[src] = 1
	startFwd := int32(0)
	if resume != nil {
		if resume.Phase == 2 {
			sigma = resume.Vals.Clone()
			startFwd = resume.PhaseLevel
		} else {
			// Phase-3 checkpoint: the forward sweep is finished; its
			// σ travels in Aux.
			sigma = resume.Aux.Clone()
			startFwd = maxLevel
		}
	}
	for l := startFwd; l < maxLevel; l++ {
		idx := append([]int32{}, byLevel[l]...)
		val := make([]float32, len(idx))
		for k, v := range idx {
			val[k] = sigma[v]
		}
		fr, err := matrix.NewSparseVec(n, idx, val)
		if err != nil {
			return nil, nil, err
		}
		before := sigma.Clone()
		out, rep, err := f.RunCustomContext(inner, ring, semiring.Ctx{}, sigma, fr, 1)
		if err != nil {
			return nil, nil, err
		}
		acc(rep)
		// Accept only the intended receivers (level l+1); OnceOnly
		// already protects settled vertices, the mask catches non-DAG
		// deliveries to unsettled deeper leaves.
		for v := 0; v < n; v++ {
			if level[v] == l+1 {
				sigma[v] = out[v]
			} else {
				sigma[v] = before[v]
			}
		}
		passes++
		if due() {
			if err := sink(&Checkpoint{Phase: 2, PhaseLevel: l + 1, Vals: sigma.Clone()}); err != nil {
				return nil, nil, fmt.Errorf("runtime: BC checkpoint after forward level %d failed: %w", l, err)
			}
		}
	}

	// ---- Phase 3: dependencies δ (backward, reversed graph) ----
	rev, err := f.reversed()
	if err != nil {
		return nil, nil, err
	}
	delta := make(matrix.Dense, n)
	startBwd := maxLevel - 1
	if resume != nil && resume.Phase == 3 {
		delta = resume.Vals.Clone()
		startBwd = resume.PhaseLevel
	}
	for l := startBwd; l >= 0; l-- {
		idx := append([]int32{}, byLevel[l+1]...)
		if len(idx) == 0 {
			continue
		}
		val := make([]float32, len(idx))
		for k, v := range idx {
			if sigma[v] > 0 {
				val[k] = (1 + delta[v]) / sigma[v]
			}
		}
		fr, err := matrix.NewSparseVec(n, idx, val)
		if err != nil {
			return nil, nil, err
		}
		before := delta.Clone()
		out, rep, err := rev.RunCustomContext(inner, ring, semiring.Ctx{}, delta, fr, 1)
		if err != nil {
			return nil, nil, err
		}
		acc(rep)
		for v := 0; v < n; v++ {
			if level[v] == l {
				// δ[v] = σ[v] · Σ (1+δ[d])/σ[d] over DAG successors d.
				delta[v] = sigma[v] * out[v]
			} else {
				delta[v] = before[v]
			}
		}
		passes++
		if due() && l > 0 {
			if err := sink(&Checkpoint{Phase: 3, PhaseLevel: l - 1, Vals: delta.Clone(), Aux: sigma.Clone()}); err != nil {
				return nil, nil, fmt.Errorf("runtime: BC checkpoint after backward level %d failed: %w", l, err)
			}
		}
	}
	delta[src] = 0
	return delta, total, nil
}
