package kernels

import "cosparse/internal/matrix"

// Host-side SpMV kernels, the native backend's one body per dataflow:
// a solo run is a one-lane call. The IP side uses a specialized
// probe-free inner loop (nativeIPPELanes) that keeps each PE's COO
// share cache-resident across lanes; the OP side reuses the shared pass
// bodies with NopProbe, lanes sequential per tile. Both preserve the
// simulated passes' per-lane float operation order exactly, so every
// lane's result is bit-identical to the simulator's and independent of
// how many lanes ride along.

// NativeIPMulti runs k fused inner-product passes on the host,
// parallel over PE row partitions. Each PE's COO share is traversed
// once per lane while it is cache-resident, through a specialized
// probe-free loop — the host-side form of the blocked SpMM
// amortization (the sim path charges the shared stream explicitly
// instead; see RunIPMulti).
func NativeIPMulti(part *IPPartition, xs []matrix.Dense, ops []Operand) []matrix.Dense {
	k := len(xs)
	if k == 0 {
		return nil
	}
	if len(ops) != k {
		panic("kernels: NativeIPMulti lane count mismatch")
	}
	for l := range xs {
		if len(xs[l]) != part.C {
			panic("kernels: NativeIPMulti frontier length mismatch")
		}
	}
	part.Materialize()
	outs := make([]matrix.Dense, k)
	for l := range outs {
		outs[l] = make(matrix.Dense, part.R)
		for i := range outs[l] {
			outs[l][i] = ops[l].Ring.Identity
		}
	}
	parallelChunks(part.NumPEs, func(_ int, lo, hi int32) {
		for pe := int(lo); pe < int(hi); pe++ {
			nativeIPPELanes(part, pe, xs, outs, ops)
		}
	})
	return outs
}

// nativeIPPELanes streams one PE's COO share once per lane with a
// tight scalar loop: no probe calls, no simulated-address arithmetic,
// the semiring closures and the lane's context hoisted out of the
// element loop. The per-lane sequence of MatOp/Reduce applications —
// including the flush-on-row-change schedule per segment — is exactly
// ipPEPass's, so every float32 rounding step matches the solo pass and
// fused results stay bit-identical. The fused win on the host is
// locality plus overhead: a PE's share is a few KB of COO that stays
// L1-resident across all k lanes, and each lane pays only the loads
// and operator applications a hand-written SpMM inner loop would.
func nativeIPPELanes(part *IPPartition, pe int, xs, outs []matrix.Dense, ops []Operand) {
	for l := range xs {
		op := &ops[l]
		ring := &op.Ring
		matOp, reduce := ring.MatOp, ring.Reduce
		ident := ring.Identity
		skip := !ring.DenseFrontier
		needsDeg, needsPrev := ring.NeedsSrcDeg, ring.NeedsDstVal
		x, out := xs[l], outs[l]
		ctx := op.Ctx
		for _, seg := range part.Segs[pe] {
			curRow := int32(-1)
			var acc float32
			for e := seg.Lo; e < seg.Hi; e++ {
				col := part.Col[e]
				xv := x[col]
				if skip && xv == ident {
					continue
				}
				row, val := part.Row[e], part.Val[e]
				ctx.Src = col
				if needsDeg {
					ctx.SrcDeg = op.Deg[col]
				}
				if row != curRow {
					if curRow >= 0 {
						out[curRow] = reduce(out[curRow], acc)
					}
					curRow = row
					if needsPrev {
						ctx.DstVal = op.Prev[row]
					}
					acc = matOp(val, xv, ctx)
					continue
				}
				acc = reduce(acc, matOp(val, xv, ctx))
			}
			if curRow >= 0 {
				out[curRow] = reduce(out[curRow], acc)
			}
		}
	}
}

// NativeOPMulti runs k outer-product passes on the host, parallel over
// tiles with the lanes sequential within each tile — the tile's CSC
// slice is traversed back to back for all k frontiers while it is
// cache-resident. Within a tile the PE column passes and the LCP merge
// run sequentially, and pesPerTile must match the sim geometry, so each
// lane's frontier split and merge order match RunOP exactly and
// per-lane results are bit-identical across backends and lane counts.
func NativeOPMulti(part *OPPartition, fs []*matrix.SparseVec, ops []Operand, pesPerTile int) []*matrix.SparseVec {
	k := len(fs)
	if k == 0 {
		return nil
	}
	if len(ops) != k {
		panic("kernels: NativeOPMulti lane count mismatch")
	}
	if pesPerTile < 1 {
		pesPerTile = 1
	}
	part.Materialize()
	peColsPerLane := make([][]int32, k)
	for l := range fs {
		if fs[l].N != part.C {
			panic("kernels: NativeOPMulti frontier length mismatch")
		}
		peColsPerLane[l] = splitEven(fs[l].NNZ(), pesPerTile)
	}
	tileOut := make([][][]opPair, k) // [lane][tile]
	for l := range tileOut {
		tileOut[l] = make([][]opPair, part.Tiles)
	}
	parallelChunks(part.Tiles, func(_ int, tlo, thi int32) {
		stagingAddr := make([]uint64, pesPerTile)
		for t := int(tlo); t < int(thi); t++ {
			for l := 0; l < k; l++ {
				peCols := peColsPerLane[l]
				staged := make([][]opPair, pesPerTile)
				for pe := 0; pe < pesPerTile; pe++ {
					lo, hi := peCols[pe], peCols[pe+1]
					if lo >= hi {
						continue
					}
					staged[pe] = opPEPass(NopProbe{}, part, t, fs[l], ops[l], lo, hi, 0, opPEAddrs{})
				}
				tileOut[l][t] = opLCPPass(NopProbe{}, staged, ops[l], stagingAddr, 0)
			}
		}
	})
	outs := make([]*matrix.SparseVec, k)
	for l := 0; l < k; l++ {
		out := &matrix.SparseVec{N: part.R}
		for t := 0; t < part.Tiles; t++ {
			for _, e := range tileOut[l][t] {
				out.Idx = append(out.Idx, e.row)
				out.Val = append(out.Val, e.val)
			}
		}
		outs[l] = out
	}
	return outs
}
