package runtime

import (
	"context"
	"fmt"
	"time"

	"cosparse/internal/exec"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// The iteration loop. Every algorithm run is k ≥ 1 lanes advancing in
// lockstep rounds through runLanes; a solo run is a one-lane batch.
// Every round's SpMV kernels and merges are issued through the
// backend's two batched entry points, IPIteration and OPIteration, so
// the matrix traversal is amortized across lanes (SpMV → SpMM). The
// merges inside those calls run per lane, and everything else —
// convergence checks, frontier conversion, reconfiguration decisions,
// trace rings and checkpoints — stays per lane, so each lane's result
// is bit-identical to running it alone and each lane finishes, fails,
// cancels and checkpoints independently.

// laneState is one run's full iteration state, held in a struct so k
// lanes can interleave.
type laneState struct {
	ctx      context.Context
	op       kernels.Operand
	vals     matrix.Dense
	frontier *matrix.SparseVec
	fDense   matrix.Dense      // persistent IP frontier buffer
	lastSet  *matrix.SparseVec // what is currently scattered into fDense
	prev     Decision
	iter     int
	maxIters int
	rep      *Report
	trace    *iterRing
	cc       *CheckpointConfig
	step     stepFunc
	aux      func(*Checkpoint)
	err      error
	done     bool
}

// stepFunc is a lane's convergence hook. It runs after each
// iteration's merge with the iteration's stats, the lane's merged
// values (which it may edit in place) and the frontier the merge
// extracted (which it must not mutate), and returns the frontier the
// next iteration runs on; an empty or nil frontier ends the lane.
type stepFunc func(st IterStat, vals matrix.Dense, next *matrix.SparseVec) *matrix.SparseVec

func (l *laneState) fail(err error) {
	l.err = err
	l.done = true
}

// materialize flattens the bounded trace ring into the report's Iters;
// runLanes defers it so it happens on every exit path, including lanes
// that failed or were cancelled mid-batch.
func (l *laneState) materialize() {
	l.rep.Iters = l.trace.slice()
	l.rep.TotalIters = l.trace.total
	l.rep.DroppedIters = l.trace.dropped
}

// newLane builds one lane and, when ctx carries a checkpoint to resume
// from, restores it (see resume). A checkpoint rides on ctx, so lanes
// in one fused run may resume at different iterations.
func (f *Framework) newLane(ctx context.Context, name string, ring semiring.Semiring, sctx semiring.Ctx,
	vals matrix.Dense, frontier *matrix.SparseVec, maxIters int, step stepFunc, aux func(*Checkpoint)) *laneState {

	l := f.freshLane(ctx, name, ring, sctx, vals, frontier, maxIters, step, aux)
	if l.cc != nil && l.cc.Resume != nil {
		l.resume(l.cc.Resume, f.n)
	}
	return l
}

// freshLane builds one lane at iteration 0.
//
// vals is the persistent per-vertex value array; frontier the initial
// active set (ignored for DenseFrontier semirings, whose every vertex
// stays active for maxIters iterations). ctx is consulted once per
// iteration, before the SpMV is issued: a cancelled or deadline-expired
// context stops the lane between iterations with the partial report
// and ctx's error. step, if non-nil, is the lane's convergence hook
// (see stepFunc). aux, if non-nil, lets the algorithm stow its own
// convergence state (e.g. BFS levels) into each checkpoint the loop
// takes.
func (f *Framework) freshLane(ctx context.Context, name string, ring semiring.Semiring, sctx semiring.Ctx,
	vals matrix.Dense, frontier *matrix.SparseVec, maxIters int, step stepFunc, aux func(*Checkpoint)) *laneState {

	l := &laneState{
		ctx:      ctx,
		vals:     vals,
		frontier: frontier,
		maxIters: maxIters,
		rep:      &Report{Algorithm: name, Geometry: f.opts.Geometry, Backend: f.opts.Backend.Name()},
		trace:    newIterRing(f.opts.ringCap()),
		step:     step,
		aux:      aux,
		prev:     Decision{UseIP: true, HW: sim.HWConfig(-1)}, // sentinel: first iteration reconfigures freely
		cc:       CheckpointFromContext(ctx),
	}
	// The lane owns its IP buffers across iterations (native backend;
	// the simulator ignores the scratch).
	l.op = kernels.Operand{Ring: ring, Ctx: sctx, Scratch: new(kernels.Scratch)}
	if ring.NeedsSrcDeg {
		l.op.Deg = f.ipPart.OutDegrees()
	}
	return l
}

// resume restores the lane from cp, taken by a lane of the same
// algorithm on an n-vertex graph; a checkpoint that does not fit fails
// the lane before its first iteration.
func (l *laneState) resume(cp *Checkpoint, n int) {
	name := l.rep.Algorithm
	if cp.Algo != name {
		l.fail(fmt.Errorf("runtime: checkpoint was taken by %q, cannot resume %s", cp.Algo, name))
		return
	}
	if int(cp.N) != n {
		l.fail(fmt.Errorf("runtime: checkpoint covers %d vertices, graph has %d", cp.N, n))
		return
	}
	l.vals = cp.Vals.Clone()
	l.frontier = cloneSparse(cp.Frontier)
	l.lastSet = cloneSparse(cp.LastSet)
	if l.lastSet != nil {
		// Rebuild the dense IP buffer functionally (no cycles
		// charged): it holds identity everywhere except the last
		// scattered set, exactly what FrontierDense left behind.
		l.fDense = make(matrix.Dense, n)
		for i := range l.fDense {
			l.fDense[i] = l.op.Ring.Identity
		}
		for k, ix := range l.lastSet.Idx {
			l.fDense[ix] = l.lastSet.Val[k]
		}
	}
	if cp.HavePrev {
		l.prev = Decision{UseIP: cp.PrevUseIP, HW: sim.HWConfig(cp.PrevHW)}
	}
	l.trace.preload(cp.Trace, int(cp.TotalIters), int(cp.DroppedIters))
	l.rep.TotalCycles = cp.TotalCycles
	l.rep.TotalWall = time.Duration(cp.TotalWallNs)
	l.rep.EnergyJ = cp.EnergyJ
	l.rep.Stats = cp.Stats
	l.rep.Resumed, l.rep.ResumedIter = true, int(cp.Iter)
	l.iter = int(cp.Iter)
}

// continueFrom makes l the next phase of the finished lane s, the way
// resume picks up a checkpoint: one report, one trace ring and one
// iteration count run on, and s's last decision decides whether l's
// first iteration pays a reconfiguration. l keeps its own values,
// frontier and dense IP buffer.
func (l *laneState) continueFrom(s *laneState) {
	l.rep, l.trace, l.prev, l.iter = s.rep, s.trace, s.prev, s.iter
}

// splitResult apportions a fused kernel Result across k lanes: cycles
// divide evenly with the integer remainder charged to the first lane,
// wall time and energy likewise. Microarchitectural Stats and Balance
// describe the run as a whole, so only a one-lane group — which owns
// the whole run — keeps them (the conv and merge passes, which run per
// lane, always attribute exactly).
func splitResult(r exec.Result, k int) []exec.Result {
	if k == 1 {
		return []exec.Result{r}
	}
	out := make([]exec.Result, k)
	per := r.Cycles / int64(k)
	wall := r.Wall / time.Duration(k)
	energy := r.EnergyJ / float64(k)
	for i := range out {
		out[i] = exec.Result{Cycles: per, Wall: wall, EnergyJ: energy}
	}
	out[0].Cycles += r.Cycles % int64(k)
	out[0].Wall += r.Wall - wall*time.Duration(k)
	return out
}

// pendIter is one lane's in-flight iteration within a round.
type pendIter struct {
	lane *laneState
	st   IterStat
	x    matrix.Dense // IP kernel input
	// An iteration's kernel and merge are one backend call, so the
	// kernel phase leaves the next frontier here.
	next *matrix.SparseVec
}

// subGroup is the lanes of one round that share a (dataflow, HW)
// backend call.
type subGroup []*pendIter

// args gathers the sub-group's per-lane values and operands.
func (g subGroup) args() ([]matrix.Dense, []kernels.Operand) {
	vals := make([]matrix.Dense, len(g))
	ops := make([]kernels.Operand, len(g))
	for i, p := range g {
		vals[i], ops[i] = p.lane.vals, p.lane.op
	}
	return vals, ops
}

// land books a sub-group's backend call to its lanes: each lane's
// merged values and next frontier, its share of the kernel cost and
// its merge cost.
func (g subGroup) land(vals []matrix.Dense, next []*matrix.SparseVec, kernel exec.Result, merge []exec.Result) {
	for i, share := range splitResult(kernel, len(g)) {
		p, m := g[i], merge[i]
		p.lane.vals, p.next = vals[i], next[i]
		p.st.KernelCycles, p.st.KernelWall = share.Cycles, share.Wall
		p.st.MergeCycles, p.st.MergeWall = m.Cycles, m.Wall
		p.st.EnergyJ += share.EnergyJ
		p.st.EnergyJ += m.EnergyJ
		p.st.Stats.Add(share.Stats)
		p.st.Stats.Add(m.Stats)
	}
}

// runLanes is the iteration loop: it advances all lanes round by round
// until every lane has converged, exhausted its iteration budget,
// failed or been cancelled. Per round, each active lane runs its
// pre-kernel phases (context/hook checks, convergence test, decision
// tree, frontier conversion); lanes that agree on a dataflow and
// hardware configuration then share one IPIteration or OPIteration
// call, which also merges, and the reconfiguration charge, trace and
// checkpoint run per lane.
// Lane results and errors land in the laneState structs; nil entries
// (lanes that failed validation before being built) are skipped.
func (f *Framework) runLanes(lanes []*laneState) {
	be := f.opts.Backend
	defer func() {
		for _, l := range lanes {
			if l != nil {
				l.materialize()
			}
		}
	}()

	n := f.n
	for {
		var round []*pendIter
		for _, l := range lanes {
			if l == nil || l.done {
				continue
			}
			if l.iter >= l.maxIters {
				l.done = true
				continue
			}
			name := l.rep.Algorithm
			if err := l.ctx.Err(); err != nil {
				l.fail(fmt.Errorf("runtime: %s stopped after %d iterations: %w", name, l.trace.total, err))
				continue
			}
			if f.opts.IterHook != nil {
				if err := f.opts.IterHook(l.iter); err != nil {
					l.fail(fmt.Errorf("runtime: %s stopped after %d iterations: %w", name, l.trace.total, err))
					continue
				}
			}
			var nnzF int
			if l.op.Ring.DenseFrontier {
				nnzF = n
			} else {
				if l.frontier == nil || l.frontier.NNZ() == 0 {
					l.done = true
					continue
				}
				nnzF = l.frontier.NNZ()
			}
			dec := f.decideFor(nnzF, &l.op.Ring)
			round = append(round, &pendIter{
				lane: l,
				st: IterStat{
					Iter:        l.iter,
					FrontierNNZ: nnzF,
					Density:     float64(nnzF) / float64(n),
					Decision:    dec,
					Reconfig:    l.iter > 0 && dec != l.prev,
				},
			})
		}
		if len(round) == 0 {
			return
		}

		// Pre-kernel phase, per lane in lane order: operand refresh and —
		// for sparse-frontier IP iterations — the dense frontier
		// conversion, attributed exactly to its lane. Sub-groups are
		// indexed by hardware configuration, which fixes the kernel
		// phase's execution order (SC, SCS, PC, PS).
		var ipG, opG [sim.PS + 1]subGroup
		for _, p := range round {
			l := p.lane
			ring := &l.op.Ring
			if ring.NeedsDstVal {
				l.op.Prev = l.vals
			}
			if p.st.Decision.UseIP {
				if ring.DenseFrontier {
					p.x = l.vals // PR/PPR/CF: the frontier is the value vector itself
				} else {
					if l.fDense == nil {
						l.fDense = make(matrix.Dense, n)
						for i := range l.fDense {
							l.fDense[i] = ring.Identity
						}
					}
					var convRes exec.Result
					l.fDense, convRes = be.FrontierDense(f.cfg(p.st.Decision.HW), l.fDense, l.lastSet, l.frontier, l.op)
					l.lastSet = l.frontier
					p.st.ConvCycles = convRes.Cycles
					p.st.ConvWall = convRes.Wall
					p.st.EnergyJ += convRes.EnergyJ
					p.st.Stats.Add(convRes.Stats)
					p.x = l.fDense
				}
				ipG[p.st.Decision.HW] = append(ipG[p.st.Decision.HW], p)
			} else {
				opG[p.st.Decision.HW] = append(opG[p.st.Decision.HW], p)
			}
		}

		// Kernel and merge phase: one backend call per (dataflow, HW)
		// sub-group. Lanes whose decision tree picked different hardware
		// configurations run in separate sub-batches so each lane's
		// recorded decision matches what actually executed.
		for hw := sim.SC; hw <= sim.PS; hw++ {
			if group := ipG[hw]; len(group) > 0 {
				xs := make([]matrix.Dense, len(group))
				for i, p := range group {
					xs[i] = p.x
				}
				vals, ops := group.args()
				group.land(be.IPIteration(f.cfg(hw), f.ipPart, xs, vals, ops))
			}
			if group := opG[hw]; len(group) > 0 {
				fs := make([]*matrix.SparseVec, len(group))
				for i, p := range group {
					fs[i] = p.lane.frontier
				}
				vals, ops := group.args()
				group.land(be.OPIteration(f.cfg(hw), f.opPart, fs, vals, ops))
			}
		}

		// Bookkeeping phase, per lane in lane order.
		for _, p := range round {
			l := p.lane
			next := p.next
			p.st.TotalCycles = p.st.ConvCycles + p.st.KernelCycles + p.st.MergeCycles
			p.st.TotalWall = p.st.ConvWall + p.st.KernelWall + p.st.MergeWall
			if p.st.Reconfig {
				rc := be.ReconfigCycles(f.opts.Params)
				p.st.TotalCycles += rc
				p.st.Stats.ReconfigCycles += rc
			}
			l.prev = p.st.Decision

			l.trace.push(p.st)
			l.rep.TotalCycles += p.st.TotalCycles
			l.rep.TotalWall += p.st.TotalWall
			l.rep.EnergyJ += p.st.EnergyJ
			l.rep.Stats.Add(p.st.Stats)
			if l.step != nil {
				next = l.step(p.st, l.vals, next)
			}
			if f.opts.OnIteration != nil {
				f.opts.OnIteration(p.st, next)
			}

			l.frontier = next
			done := l.iter + 1
			if l.cc != nil && l.cc.Sink != nil && l.cc.Every > 0 && done%l.cc.Every == 0 && done < l.maxIters {
				name := l.rep.Algorithm
				cp := f.snapshot(name, done, l.vals, l.frontier, l.lastSet, true, l.prev, l.rep, l.trace)
				if l.aux != nil {
					l.aux(cp)
				}
				if err := l.cc.Sink(cp); err != nil {
					l.fail(fmt.Errorf("runtime: %s checkpoint at iteration %d failed: %w", name, done, err))
					continue
				}
			}
			l.iter = done
		}
	}
}

// laneCtx returns the i-th per-lane context, defaulting to Background
// when the caller passed fewer contexts than lanes (or nil entries).
func laneCtx(ctxs []context.Context, i int) context.Context {
	if i < len(ctxs) && ctxs[i] != nil {
		return ctxs[i]
	}
	return context.Background()
}

// runBatch builds lane i with mk, runs the lanes as one fused run and
// returns each lane's values, report and error. A lane mk refuses
// (errs[i] set, no report) or that stops early (errs[i] set, partial
// report) has nil values and does not disturb the others.
func (f *Framework) runBatch(k int, mk func(i int) (*laneState, error)) ([]matrix.Dense, []*Report, []error) {
	lanes := make([]*laneState, k)
	vals := make([]matrix.Dense, k)
	reps := make([]*Report, k)
	errs := make([]error, k)
	for i := range lanes {
		lanes[i], errs[i] = mk(i)
	}
	f.runLanes(lanes)
	for i, l := range lanes {
		if l == nil {
			continue
		}
		reps[i], errs[i] = l.rep, l.err
		if l.err == nil {
			vals[i] = l.vals
		}
	}
	return vals, reps, errs
}

// lane0 unpacks a one-lane run's slices: how a solo entry returns its
// only lane.
func lane0[T any](vals []T, reps []*Report, errs []error) (T, *Report, error) {
	return vals[0], reps[0], errs[0]
}

// BFSBatch runs k breadth-first searches (one per source) as one fused
// run, using the Table I mapping: frontier values carry vertex labels
// and destinations adopt the minimum proposing label as their parent.
// Slot i of the returned slices corresponds to srcs[i]; each lane's
// result is bit-identical to lane i run alone (a one-lane call, which
// is how every solo BFS runs), and lanes converge, fail and cancel
// independently (errs[i] is non-nil only for lane i). A ctx is
// consulted between iterations: a cancelled or expired one stops its
// lane with ctx's error and the partial report.
func (f *Framework) BFSBatch(ctxs []context.Context, srcs []int32) ([]*BFSResult, []*Report, []error) {
	ress := make([]*BFSResult, len(srcs))
	vals, reps, errs := f.runBatch(len(srcs), func(i int) (l *laneState, err error) {
		l, ress[i], err = f.bfsLane(laneCtx(ctxs, i), srcs[i])
		return l, err
	})
	for i := range ress {
		if errs[i] != nil {
			ress[i] = nil
			continue
		}
		ress[i].setParents(vals[i])
	}
	return ress, reps, errs
}

// SSSPBatch runs k single-source shortest-path computations as one
// fused run; slot i corresponds to srcs[i] and is bit-identical to
// lane i run alone.
func (f *Framework) SSSPBatch(ctxs []context.Context, srcs []int32) ([]matrix.Dense, []*Report, []error) {
	return f.runBatch(len(srcs), func(i int) (*laneState, error) {
		return f.ssspLane(laneCtx(ctxs, i), srcs[i])
	})
}

// PageRankBatch runs k PageRank lanes as one fused run. Lanes start
// from the same uniform vector, so their values coincide — the point is
// serving k concurrent requests for the cost of one amortized pass,
// with per-lane contexts, checkpoints and reports intact.
func (f *Framework) PageRankBatch(ctxs []context.Context, k, iters int, alpha float32) ([]matrix.Dense, []*Report, []error) {
	return f.runBatch(k, func(i int) (*laneState, error) {
		return f.prLane(laneCtx(ctxs, i), iters, alpha)
	})
}

// PPRBatch runs k personalized-PageRank lanes — one seed vertex per
// lane — as one fused run: the canonical multi-source fusion workload
// (k users' personalization vectors over one shared graph). Slot i is
// bit-identical to lane i run alone.
func (f *Framework) PPRBatch(ctxs []context.Context, srcs []int32, iters int, alpha float32) ([]matrix.Dense, []*Report, []error) {
	return f.runBatch(len(srcs), func(i int) (*laneState, error) {
		return f.pprLane(laneCtx(ctxs, i), srcs[i], iters, alpha)
	})
}

// CFBatch runs k collaborative-filtering lanes as one fused run (same
// deterministic init per lane; per-lane contexts and reports).
func (f *Framework) CFBatch(ctxs []context.Context, k, iters int, beta, lambda float32) ([]matrix.Dense, []*Report, []error) {
	return f.runBatch(k, func(i int) (*laneState, error) {
		return f.cfLane(laneCtx(ctxs, i), iters, beta, lambda)
	})
}
