package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// Blocked multi-vector (SpMM) execution: k frontiers/value vectors ride
// one matrix traversal. The matrix stream — the dominant traffic of the
// IP pass — is fetched once per lane block instead of once per job,
// which is the amortization that makes fusing concurrent same-graph
// jobs worthwhile (SpMV → SpMM, the standard blocked multi-vector
// technique from the SpMV literature).
//
// Correctness contract: each lane keeps its own row accumulator, its
// own activity mask and its own flush schedule, so the per-lane
// sequence of MatOp/Reduce applications — and therefore every float32
// rounding step — is exactly the sequence the solo pass would execute.
// Fused results are bit-identical to solo runs by construction, on both
// backends.

// LaneBlock is the number of fused vectors processed per matrix
// traversal. Eight 4-byte lanes keep the per-element working set (one
// frontier value, one accumulator and one output line per lane) inside
// a few cache lines while amortizing the 12-byte COO triple stream
// 8-to-1; larger batches loop over blocks.
const LaneBlock = 8

// ipBlockPEPass runs one PE's share of the inner-product pass for one
// lane block (len(xs) ≤ LaneBlock): the COO row partition is streamed
// once, and every element is applied to each lane's frontier in lane
// order. Per-lane state (current row, accumulator) is kept separate so
// each lane's operation order matches ipPEPass exactly. The SPM path is
// not used — fused runs read frontiers from cacheable memory, which is
// functionally identical.
func ipBlockPEPass[P Probe](p P, part *IPPartition, pe int, xs, outs []matrix.Dense, ops []Operand, matAddr uint64, as []ipAddrs) {
	k := len(xs)
	var curRow [LaneBlock]int32
	var acc [LaneBlock]float32
	for l := 0; l < k; l++ {
		curRow[l] = -1
	}

	flush := func(l int) {
		if curRow[l] < 0 {
			return
		}
		addr := as[l].out + uint64(curRow[l])*4
		p.Load(addr)
		p.Compute(ops[l].Ring.ReduceCost)
		outs[l][curRow[l]] = ops[l].Ring.Reduce(outs[l][curRow[l]], acc[l])
		p.Store(addr)
		curRow[l] = -1
	}

	for _, seg := range part.Segs[pe] {
		for e := seg.Lo; e < seg.Hi; e++ {
			row, col, val := part.Row[e], part.Col[e], part.Val[e]
			// One triple stream serves every lane in the block.
			for w := 0; w < 3; w++ {
				p.LoadStream(matAddr + uint64(e)*12 + uint64(w)*4)
			}
			for l := 0; l < k; l++ {
				op := &ops[l]
				p.Load(as[l].vec + uint64(col)*4)
				// Per-lane work skipping: a source inactive in this
				// lane's frontier contributes nothing to this lane even
				// when other lanes are active on it.
				if !op.Ring.DenseFrontier && xs[l][col] == op.Ring.Identity {
					continue
				}
				if op.Ring.NeedsSrcDeg {
					p.Load(as[l].deg + uint64(col)*4)
				}
				if row != curRow[l] {
					flush(l)
					curRow[l] = row
					if op.Ring.NeedsDstVal {
						p.Load(as[l].prev + uint64(row)*4)
					}
					p.Compute(op.Ring.MatOpCost)
					acc[l] = op.Ring.MatOp(val, xs[l][col], op.ctxFor(row, col))
					continue
				}
				p.Compute(op.Ring.MatOpCost + op.Ring.ReduceCost)
				acc[l] = op.Ring.Reduce(acc[l], op.Ring.MatOp(val, xs[l][col], op.ctxFor(row, col)))
			}
		}
		for l := 0; l < k; l++ {
			flush(l)
		}
	}
}

// RunIPMulti executes k fused inner-product SpMVs on one machine: the
// matrix partition is streamed once per lane block of LaneBlock
// vectors, so the simulated cost reflects the amortized traversal. Each
// lane's output vector is exactly what RunIP would have produced for
// that lane alone.
func RunIPMulti(cfg sim.Config, part *IPPartition, xs []matrix.Dense, ops []Operand) ([]matrix.Dense, sim.Result) {
	k := len(xs)
	if k == 0 {
		return nil, sim.Result{}
	}
	if len(ops) != k {
		panic("kernels: RunIPMulti lane count mismatch")
	}
	for l := range xs {
		if len(xs[l]) != part.C {
			panic("kernels: RunIPMulti frontier length mismatch")
		}
	}
	part.Materialize()
	m := sim.MustMachine(cfg)
	arena := sim.NewArena(cfg.Params)
	matAddr := arena.Alloc(3 * len(part.Val))
	as := make([]ipAddrs, k)
	for l := range as {
		as[l].mat = matAddr
		as[l].vec = arena.Alloc(part.C)
		as[l].out = arena.Alloc(part.R)
		if ops[l].Ring.NeedsSrcDeg {
			as[l].deg = arena.Alloc(part.C)
		}
		if ops[l].Ring.NeedsDstVal {
			as[l].prev = arena.Alloc(part.R)
		}
	}

	outs := make([]matrix.Dense, k)
	for l := range outs {
		outs[l] = make(matrix.Dense, part.R)
		for i := range outs[l] {
			outs[l][i] = ops[l].Ring.Identity
		}
	}

	prog := sim.Program{PE: func(p *sim.Proc) {
		pe := p.GlobalPE()
		if pe >= part.NumPEs {
			return
		}
		for b := 0; b < k; b += LaneBlock {
			e := b + LaneBlock
			if e > k {
				e = k
			}
			ipBlockPEPass(p, part, pe, xs[b:e], outs[b:e], ops[b:e], matAddr, as[b:e])
		}
	}}

	res := m.Run(prog)
	return outs, res
}
