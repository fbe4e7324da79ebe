package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// mergeValue combines a kernel contribution with the destination's
// previous value according to the semiring:
//
//   - OnceOnly (BFS): settled vertices never change;
//   - MergePrev (monotone propagation): reduce with the previous value,
//     so untouched (Identity) contributions keep the old value and
//     touched ones can only improve it;
//   - Vector_Op (PR, PPR, CF): applied last, per Table I, with the
//     destination id in Ctx.Dst (PPR's teleport term restarts at the
//     seed vertex only).
func mergeValue(op *Operand, dst int32, contrib, prev float32) float32 {
	r := &op.Ring
	if r.OnceOnly && prev != r.Identity {
		return prev
	}
	v := contrib
	if r.MergePrev {
		v = r.Reduce(contrib, prev)
	}
	if r.VecOp != nil {
		c := op.Ctx
		c.Dst = dst
		v = r.VecOp(v, prev, c)
	}
	return v
}

// mergeCost is the PE cycles charged per merged element (compare +
// reduce/vecop).
func mergeCost(op *Operand) int {
	c := 1 + op.Ring.ReduceCost
	if op.Ring.VecOp != nil {
		c += 2
	}
	return c
}

// mergeAddrs is the simulated address map of the dense merge pass.
type mergeAddrs struct {
	contrib, vals, frontIdx, frontVal uint64
}

// mergeDenseRange merges contrib[lo:hi] into vals in place (element i's
// merge reads only element i, and ranges are disjoint) and returns the
// indices whose merge improved the old value — the range slice of the
// next sparse frontier. Shared by both backends.
func mergeDenseRange[P Probe](p P, lo, hi int32, contrib, vals matrix.Dense, op *Operand, cost int, extract bool, a mergeAddrs) []int32 {
	var changed []int32
	for i := lo; i < hi; i++ {
		p.LoadStream(a.contrib + uint64(i)*4)
		p.LoadStream(a.vals + uint64(i)*4)
		p.Compute(cost)
		old := vals[i]
		nv := mergeValue(op, i, contrib[i], old)
		vals[i] = nv
		if nv != old {
			p.Store(a.vals + uint64(i)*4)
		}
		if extract && op.Ring.Improving(nv, old) {
			p.Store(a.frontIdx + uint64(i)*4)
			p.Store(a.frontVal + uint64(i)*4)
			changed = append(changed, i)
		}
	}
	return changed
}

// scatterAddrs is the simulated address map of the sparse scatter-merge
// pass.
type scatterAddrs struct {
	idx, cval, vals, frontIdx, frontVal uint64
}

// scatterMergeRange merges the sparse contributions contrib[lo:hi] into
// vals in place and returns the contribution positions whose merge
// improved the old value. contrib.Idx is sorted and unique, so ranges
// touch disjoint destinations. Shared by both backends.
func scatterMergeRange[P Probe](p P, lo, hi int32, contrib *matrix.SparseVec, vals matrix.Dense, op *Operand, cost int, extract bool, a scatterAddrs) []int32 {
	var changed []int32
	for k := lo; k < hi; k++ {
		p.LoadStream(a.idx + uint64(k)*4)
		p.LoadStream(a.cval + uint64(k)*4)
		i := contrib.Idx[k]
		p.Load(a.vals + uint64(i)*4) // random gather of the old value
		p.Compute(cost)
		old := vals[i]
		nv := mergeValue(op, i, contrib.Val[k], old)
		vals[i] = nv
		if nv != old {
			p.Store(a.vals + uint64(i)*4)
		}
		if extract && op.Ring.Improving(nv, old) {
			p.Store(a.frontIdx + uint64(k)*4)
			p.Store(a.frontVal + uint64(k)*4)
			changed = append(changed, k)
		}
	}
	return changed
}

// frontierAddrs is the simulated address map of the dense-frontier
// conversion pass.
type frontierAddrs struct {
	buf, clrIdx, setIdx, setVal uint64
}

// frontierClearRange resets buf at clear.Idx[lo:hi] to the identity.
func frontierClearRange[P Probe](p P, lo, hi int32, buf matrix.Dense, clear *matrix.SparseVec, op *Operand, a frontierAddrs) {
	for k := lo; k < hi; k++ {
		p.LoadStream(a.clrIdx + uint64(k)*4)
		p.Store(a.buf + uint64(clear.Idx[k])*4)
		buf[clear.Idx[k]] = op.Ring.Identity
	}
}

// frontierSetRange scatters set[lo:hi] into buf.
func frontierSetRange[P Probe](p P, lo, hi int32, buf matrix.Dense, set *matrix.SparseVec, a frontierAddrs) {
	for k := lo; k < hi; k++ {
		p.LoadStream(a.setIdx + uint64(k)*4)
		p.LoadStream(a.setVal + uint64(k)*4)
		p.Store(a.buf + uint64(set.Idx[k])*4)
		buf[set.Idx[k]] = set.Val[k]
	}
}

// RunMergeDense is the post-IP pass: it streams the kernel output and
// the previous values, merges them, writes back changed values, and
// compacts the changed indices into the next sparse frontier (the
// dense→sparse conversion of §III-D2, fused with the merge the way a
// real implementation would).
//
// vals is updated in place and returned along with the extracted
// frontier (nil when the semiring keeps a dense frontier).
func RunMergeDense(cfg sim.Config, contrib, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec, sim.Result) {
	n := len(vals)
	m := sim.MustMachine(cfg)
	arena := sim.NewArena(cfg.Params)
	addrs := mergeAddrs{
		contrib:  arena.Alloc(n),
		vals:     arena.Alloc(n),
		frontIdx: arena.Alloc(n + 1),
		frontVal: arena.Alloc(n + 1),
	}

	totalPEs := cfg.Geometry.TotalPEs()
	bounds := splitEven(n, totalPEs)
	perPE := make([][]int32, totalPEs)
	cost := mergeCost(&op)
	extract := !op.Ring.DenseFrontier

	prog := sim.Program{PE: func(p *sim.Proc) {
		g := p.GlobalPE()
		perPE[g] = mergeDenseRange(p, bounds[g], bounds[g+1], contrib, vals, &op, cost, extract, addrs)
	}}
	res := m.Run(prog)

	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleFrontier(n, perPE, vals)
	}
	return vals, frontier, res
}

// assembleFrontier concatenates per-range changed-index lists (ranges
// are ascending and disjoint) into the next sorted sparse frontier,
// reading values from the already-updated vals.
func assembleFrontier(n int, perRange [][]int32, vals matrix.Dense) *matrix.SparseVec {
	frontier := &matrix.SparseVec{N: n}
	for _, list := range perRange {
		for _, i := range list {
			frontier.Idx = append(frontier.Idx, i)
			frontier.Val = append(frontier.Val, vals[i])
		}
	}
	return frontier
}

// RunScatterMerge is the post-OP pass: the sparse kernel output is
// scattered into the persistent value array (random read-modify-write
// per touched destination) and changed destinations are compacted into
// the next frontier.
func RunScatterMerge(cfg sim.Config, contrib *matrix.SparseVec, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec, sim.Result) {
	m := sim.MustMachine(cfg)
	arena := sim.NewArena(cfg.Params)
	addrs := scatterAddrs{
		idx:      arena.Alloc(contrib.NNZ() + 1),
		cval:     arena.Alloc(contrib.NNZ() + 1),
		vals:     arena.Alloc(len(vals)),
		frontIdx: arena.Alloc(contrib.NNZ() + 1),
		frontVal: arena.Alloc(contrib.NNZ() + 1),
	}

	totalPEs := cfg.Geometry.TotalPEs()
	bounds := splitEven(contrib.NNZ(), totalPEs)
	perPE := make([][]int32, totalPEs)
	cost := mergeCost(&op)
	extract := !op.Ring.DenseFrontier

	prog := sim.Program{PE: func(p *sim.Proc) {
		g := p.GlobalPE()
		perPE[g] = scatterMergeRange(p, bounds[g], bounds[g+1], contrib, vals, &op, cost, extract, addrs)
	}}
	res := m.Run(prog)

	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleScatterFrontier(contrib, perPE, vals)
	}
	return vals, frontier, res
}

// assembleScatterFrontier maps changed contribution positions back to
// destination indices (contrib.Idx is sorted, ranges are disjoint).
func assembleScatterFrontier(contrib *matrix.SparseVec, perRange [][]int32, vals matrix.Dense) *matrix.SparseVec {
	frontier := &matrix.SparseVec{N: len(vals)}
	for _, list := range perRange {
		for _, k := range list {
			frontier.Idx = append(frontier.Idx, contrib.Idx[k])
			frontier.Val = append(frontier.Val, vals[contrib.Idx[k]])
		}
	}
	return frontier
}

// RunFrontierDense maintains the persistent dense frontier buffer used
// by the IP kernel: positions active last time (`clear`) are reset to
// the identity, and the new frontier (`set`) is scattered in — the
// paper's "lightweight vector conversion" (§III-D2), which touches only
// O(|old| + |new|) elements instead of rebuilding the whole vector.
//
// buf is mutated in place and returned.
func RunFrontierDense(cfg sim.Config, buf matrix.Dense, clear, set *matrix.SparseVec, op Operand) (matrix.Dense, sim.Result) {
	m := sim.MustMachine(cfg)
	arena := sim.NewArena(cfg.Params)
	addrs := frontierAddrs{buf: arena.Alloc(len(buf))}
	nClear, nSet := 0, 0
	if clear != nil {
		nClear = clear.NNZ()
	}
	if set != nil {
		nSet = set.NNZ()
	}
	addrs.clrIdx = arena.Alloc(nClear + 1)
	addrs.setIdx = arena.Alloc(nSet + 1)
	addrs.setVal = arena.Alloc(nSet + 1)

	totalPEs := cfg.Geometry.TotalPEs()
	cb := splitEven(nClear, totalPEs)
	sb := splitEven(nSet, totalPEs)

	prog := sim.Program{PE: func(p *sim.Proc) {
		g := p.GlobalPE()
		frontierClearRange(p, cb[g], cb[g+1], buf, clear, &op, addrs)
		frontierSetRange(p, sb[g], sb[g+1], buf, set, addrs)
	}}
	res := m.Run(prog)
	return buf, res
}
