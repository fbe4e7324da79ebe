package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// The simulated inner-product (IP) pass, paper Fig. 3 top, in blocked
// multi-vector (SpMM) form: k frontiers/value vectors ride one matrix
// traversal. The matrix stream — the dominant traffic of the IP pass —
// is fetched once per lane block instead of once per job, which is the
// amortization that makes fusing concurrent same-graph jobs worthwhile
// (SpMV → SpMM, the standard blocked multi-vector technique from the
// SpMV literature). A solo SpMV is a one-lane block.
//
// Correctness contract: each lane keeps its own row accumulator, its
// own activity mask and its own flush schedule, so the per-lane
// sequence of MatOp/Reduce applications — and therefore every float32
// rounding step — is the sequence a lone vector would execute. Fused
// results are bit-identical to solo runs by construction, on both
// backends (the native side replays it in nativeIPPELanes).

// LaneBlock is the number of fused vectors processed per matrix
// traversal. Eight 4-byte lanes keep the per-element working set (one
// frontier value, one accumulator and one output line per lane) inside
// a few cache lines while amortizing the 12-byte COO triple stream
// 8-to-1; larger batches loop over blocks.
const LaneBlock = 8

// ipLane is one lane of an IP pass: its operands, their simulated
// addresses, and the output row it is accumulating. Each PE works on
// its own copy of the lanes, so the row state is private to the PE.
type ipLane struct {
	x, out              matrix.Dense
	op                  *Operand
	vec, dst, deg, prev uint64 // simulated addresses of x, out, Deg, Prev
	row                 int32  // -1 when no row is open
	acc                 float32
}

// flush read-modify-writes the lane's open row into its output.
func (ln *ipLane) flush(p *sim.Proc) {
	if ln.row < 0 {
		return
	}
	addr := ln.dst + uint64(ln.row)*4
	p.Load(addr)
	p.Compute(ln.op.Ring.ReduceCost)
	ln.out[ln.row] = ln.op.Ring.Reduce(ln.out[ln.row], ln.acc)
	p.Store(addr)
	ln.row = -1
}

// ipBlockPEPass runs one PE's share of the inner-product pass for one
// lane block (len(lanes) ≤ LaneBlock): stream the COO row partition
// vblock by vblock once, apply every element to each lane's frontier
// in lane order, accumulate per row in a register and read-modify-write
// the output vector on row changes. Frontiers are read from cacheable
// memory (SC), or — when spm is set, which only a run of one lane does
// — from the shared scratchpad after a cooperative fill of each vblock
// (SCS, §III-C2).
func ipBlockPEPass(p *sim.Proc, part *IPPartition, pe int, lanes []ipLane, matAddr uint64, spm bool, pesPerTile int) {
	for _, seg := range part.Segs[pe] {
		vbStart := int(seg.VB) * part.VBlockWords
		if spm {
			// Cooperative SPM fill: the tile's PEs stream disjoint
			// chunks of this vblock's frontier segment into the
			// shared scratchpad.
			width := part.VBlockWords
			if vbStart+width > part.C {
				width = part.C - vbStart
			}
			share := (width + pesPerTile - 1) / pesPerTile
			lo := p.PE() * share
			hi := lo + share
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				p.LoadStream(lanes[0].vec + uint64(vbStart+i)*4)
				p.SPMStore(i)
			}
		}
		for e := seg.Lo; e < seg.Hi; e++ {
			row, col, val := part.Row[e], part.Col[e], part.Val[e]
			// Stream the COO triple (12 bytes, sequential), once for
			// every lane in the block. The stream is prefetched ahead
			// (bandwidth-bound) but its lines still land in the L1
			// cache, competing with the frontier vector for capacity —
			// exactly the contention SCS relieves by pinning the vector
			// in the SPM (paper §III-C2).
			for w := 0; w < 3; w++ {
				p.LoadStream(matAddr + uint64(e)*12 + uint64(w)*4)
			}
			for i := range lanes {
				ln := &lanes[i]
				ring := &ln.op.Ring
				// Frontier element: scratchpad in SCS, cache in SC.
				if spm {
					p.SPMLoad(int(col) - vbStart)
				} else {
					p.Load(ln.vec + uint64(col)*4)
				}
				// Inactive source (identity value) in this lane's
				// frontier: skip the compute and the output access
				// entirely (§IV-C1 — "skips computation and accesses to
				// the output vector if the vector element is zero"),
				// even when other lanes are active on it. Dense-frontier
				// rings (PR, CF) treat every vertex as active. Compare
				// cost is folded into the load-use slot.
				xv := ln.x[col]
				if !ring.DenseFrontier && xv == ring.Identity {
					continue
				}
				if ring.NeedsSrcDeg {
					p.Load(ln.deg + uint64(col)*4)
				}
				if row != ln.row {
					ln.flush(p)
					ln.row = row
					if ring.NeedsDstVal {
						p.Load(ln.prev + uint64(row)*4)
					}
					p.Compute(ring.MatOpCost)
					ln.acc = ring.MatOp(val, xv, ln.op.ctxFor(row, col))
					continue
				}
				p.Compute(ring.MatOpCost + ring.ReduceCost)
				ln.acc = ring.Reduce(ln.acc, ring.MatOp(val, xv, ln.op.ctxFor(row, col)))
			}
		}
		for i := range lanes {
			lanes[i].flush(p)
		}
	}
}

// RunIPMulti executes k inner-product SpMVs on one fresh machine with
// the given configuration: the matrix partition is streamed once per
// lane block of LaneBlock vectors, so the simulated cost reflects the
// amortized traversal. A lone vector (k = 1) under SCS stages its
// frontier in the scratchpad; fused lanes read theirs from cacheable
// memory, which is functionally identical.
//
// Each returned vector holds Ring.Identity in untouched rows; the
// caller merges it with the previous values (see RunMergeDense).
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
	matAddr := arena.Alloc(3 * len(part.Val)) // (row, col, val) triples
	lanes := make([]ipLane, k)
	outs := make([]matrix.Dense, k)
	for l := range lanes {
		outs[l] = make(matrix.Dense, part.R)
		for i := range outs[l] {
			outs[l][i] = ops[l].Ring.Identity
		}
		ln := &lanes[l]
		ln.x, ln.out, ln.op, ln.row = xs[l], outs[l], &ops[l], -1
		ln.vec = arena.Alloc(part.C)
		ln.dst = arena.Alloc(part.R)
		if ops[l].Ring.NeedsSrcDeg {
			ln.deg = arena.Alloc(part.C)
		}
		if ops[l].Ring.NeedsDstVal {
			ln.prev = arena.Alloc(part.R)
		}
	}

	spm := k == 1 && cfg.HW == sim.SCS && part.VBlockWords > 0
	perPE := make([]ipLane, part.NumPEs*k)
	prog := sim.Program{PE: func(p *sim.Proc) {
		pe := p.GlobalPE()
		if pe >= part.NumPEs {
			return
		}
		own := perPE[pe*k : (pe+1)*k]
		copy(own, lanes)
		for b := 0; b < k; b += LaneBlock {
			ipBlockPEPass(p, part, pe, own[b:min(b+LaneBlock, k)], matAddr, spm, cfg.Geometry.PEsPerTile)
		}
	}}

	res := m.Run(prog)
	return outs, res
}
