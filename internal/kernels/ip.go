package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// ipAddrs is the simulated address map of the IP pass operands. The
// native backend passes the zero value — NopProbe never dereferences an
// address.
type ipAddrs struct {
	mat, vec, out, deg, prev uint64
}

// ipPEPass runs one PE's share of the inner-product pass: stream the
// COO row partition vblock by vblock, read the dense frontier either
// from cacheable memory (SC) or from the shared scratchpad after a
// cooperative fill (SCS), accumulate per-row in a register and
// read-modify-write the output vector on row changes (paper Fig. 3,
// top). All timing-relevant events go through the probe; the pass body
// is shared verbatim by the sim and native backends.
func ipPEPass[P Probe](p P, part *IPPartition, pe int, x, out matrix.Dense, op *Operand, spm bool, peInTile, pesPerTile int, a ipAddrs) {
	// Frontier-masked algorithms skip inactive sources; dense-frontier
	// rings (PR, CF) treat every vertex as active, and their operators
	// may produce nonzero contributions even from zero-valued sources.
	skipInactive := !op.Ring.DenseFrontier

	curRow := int32(-1)
	var acc float32
	flush := func() {
		if curRow < 0 {
			return
		}
		// Read-modify-write of the output element.
		addr := a.out + uint64(curRow)*4
		p.Load(addr)
		p.Compute(op.Ring.ReduceCost)
		out[curRow] = op.Ring.Reduce(out[curRow], acc)
		p.Store(addr)
		curRow = -1
	}

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
			lo := peInTile * share
			hi := lo + share
			if hi > width {
				hi = width
			}
			for i := lo; i < hi; i++ {
				p.LoadStream(a.vec + uint64(vbStart+i)*4)
				p.SPMStore(i)
			}
		}
		for k := seg.Lo; k < seg.Hi; k++ {
			row, col, val := part.Row[k], part.Col[k], part.Val[k]
			// Stream the COO triple (12 bytes, sequential). The
			// stream is prefetched ahead (bandwidth-bound) but its
			// lines still land in the L1 cache, competing with the
			// frontier vector for capacity — exactly the contention
			// SCS relieves by pinning the vector in the SPM
			// (paper §III-C2).
			for w := 0; w < 3; w++ {
				p.LoadStream(a.mat + uint64(k)*12 + uint64(w)*4)
			}
			// Frontier element: scratchpad in SCS, cache in SC.
			if spm {
				p.SPMLoad(int(col) - vbStart)
			} else {
				p.Load(a.vec + uint64(col)*4)
			}
			// Inactive source (identity value): skip the compute and
			// the output access entirely (§IV-C1 — "skips computation
			// and accesses to the output vector if the vector element
			// is zero"). Compare cost is folded into the load-use slot.
			if skipInactive && x[col] == op.Ring.Identity {
				continue
			}
			if op.Ring.NeedsSrcDeg {
				p.Load(a.deg + uint64(col)*4)
			}
			if row != curRow {
				flush()
				curRow = row
				if op.Ring.NeedsDstVal {
					p.Load(a.prev + uint64(row)*4)
				}
				p.Compute(op.Ring.MatOpCost)
				acc = op.Ring.MatOp(val, x[col], op.ctxFor(row, col))
				continue
			}
			p.Compute(op.Ring.MatOpCost + op.Ring.ReduceCost)
			acc = op.Ring.Reduce(acc, op.Ring.MatOp(val, x[col], op.ctxFor(row, col)))
		}
		flush()
	}
}

// RunIP executes one inner-product SpMV on a fresh machine with the
// given configuration (SC or SCS), instantiating the shared pass body
// with a *sim.Proc probe per PE.
//
// The returned vector holds Ring.Identity in untouched rows; the caller
// merges it with the previous values (see RunMergeDense).
func RunIP(cfg sim.Config, part *IPPartition, x matrix.Dense, op Operand) (matrix.Dense, sim.Result) {
	if len(x) != part.C {
		panic("kernels: RunIP frontier length mismatch")
	}
	part.Materialize()
	m := sim.MustMachine(cfg)
	par := cfg.Params
	arena := sim.NewArena(par)
	addrs := ipAddrs{
		mat: arena.Alloc(3 * len(part.Val)), // (row, col, val) triples
		vec: arena.Alloc(part.C),
		out: arena.Alloc(part.R),
	}
	if op.Ring.NeedsSrcDeg {
		addrs.deg = arena.Alloc(part.C)
	}
	if op.Ring.NeedsDstVal {
		addrs.prev = arena.Alloc(part.R)
	}

	out := make(matrix.Dense, part.R)
	for i := range out {
		out[i] = op.Ring.Identity
	}

	prog := sim.Program{PE: func(p *sim.Proc) {
		pe := p.GlobalPE()
		if pe >= part.NumPEs {
			return
		}
		spm := cfg.HW == sim.SCS && part.VBlockWords > 0
		ipPEPass(p, part, pe, x, out, &op, spm, p.PE(), cfg.Geometry.PEsPerTile, addrs)
	}}

	res := m.Run(prog)
	return out, res
}
