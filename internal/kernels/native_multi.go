package kernels

import (
	"math"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

var inf32 = float32(math.Inf(1))

// Host-side SpMV kernels, the native backend's one body per dataflow:
// a solo run is a one-lane call. The IP side runs one hand-specialised
// probe-free loop per built-in Table I row (nativeIPPELanes), with the
// semiring closures as the fallback for custom rings, and keeps each
// PE's COO share cache-resident across lanes; the OP side reuses the
// shared pass bodies with NopProbe, lanes sequential per tile. Both
// preserve the simulated passes' per-lane float operation order
// exactly, so every lane's result is bit-identical to the simulator's
// and independent of how many lanes ride along.

// NativeIPMulti runs k fused inner-product passes on the host,
// parallel over PE row partitions. Each PE's COO share is traversed
// once per lane while it is cache-resident — the host-side form of the
// blocked SpMM amortization (the sim path charges the shared stream
// explicitly instead; see RunIPMulti). A lane whose operand carries a
// Scratch gets its contribution vector from there (valid until that
// lane's next call).
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
	srcs := make([]matrix.Dense, k) // what each lane's edge loop gathers from
	hoist := false
	for l := range ops {
		s := ops[l].Scratch
		if s == nil {
			s = new(Scratch)
		}
		outs[l] = grow(&s.out, part.R)
		srcs[l] = xs[l]
		if ops[l].Ring.Kind == semiring.KindPR {
			srcs[l] = grow(&s.y, part.C)
			hoist = true
		}
	}
	if hoist {
		// PR/PPR's Matrix_Op reads only the source: apply it once per
		// source instead of once per edge. The edge loop then adds the
		// same float32 the closure would have produced, in the same
		// order.
		parallelChunks(part.C, func(_ int, lo, hi int32) {
			for l := range ops {
				if ops[l].Ring.Kind != semiring.KindPR {
					continue
				}
				x, y, deg := xs[l][lo:hi], srcs[l][lo:hi], ops[l].Deg[lo:hi]
				for v, d := range deg {
					if d == 0 {
						y[v] = 0
					} else {
						y[v] = x[v] / float32(d)
					}
				}
			}
		})
	}
	parallelChunks(part.NumPEs, func(_ int, lo, hi int32) {
		for pe := int(lo); pe < int(hi); pe++ {
			nativeIPPELanes(part, pe, srcs, outs, ops)
		}
	})
	return outs
}

// nativeIPPELanes streams one PE's COO share once per lane: no probe
// calls, no simulated-address arithmetic, and for the built-in rings no
// closure calls either — a switch on the ring's Kind picks a loop with
// Matrix_Op and Reduce written out (dispatch is on the tag the semiring
// constructors set, never on Name). Every loop replays ipPEPass's
// per-lane sequence: per segment the first contribution of a row seeds
// acc, later ones reduce into it, and out[row] = Reduce(out[row], acc)
// on row change and segment end; sparse-frontier rings skip
// identity-valued sources. So every float32 rounding step matches the
// generic pass and results stay bit-identical across backends and lane
// counts. The PE first resets its own output rows to the identity.
func nativeIPPELanes(part *IPPartition, pe int, srcs, outs []matrix.Dense, ops []Operand) {
	segs := part.Segs[pe]
	for l := range ops {
		op := &ops[l]
		x, out := srcs[l], outs[l]
		own := out[part.RowBounds[pe]:part.RowBounds[pe+1]]
		for i := range own {
			own[i] = op.Ring.Identity
		}
		switch op.Ring.Kind {
		case semiring.KindSpMV:
			ipSpMV(part, segs, x, out)
		case semiring.KindBFS:
			ipBFS(part, segs, x, out)
		case semiring.KindSSSP:
			ipSSSP(part, segs, x, out, op.Prev)
		case semiring.KindPR:
			ipPR(part, segs, x, out)
		case semiring.KindCF:
			ipCF(part, segs, x, out, op.Prev, op.Ctx.Lambda)
		default:
			ipClosures(part, segs, x, out, op)
		}
	}
}

// ipSpMV: Matrix_Op = Sp·V_src, Reduce = +, zero sources skipped.
func ipSpMV(part *IPPartition, segs []Seg, x, out matrix.Dense) {
	for _, seg := range segs {
		rows, cols, vals := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi], part.Val[seg.Lo:seg.Hi]
		curRow := int32(-1)
		var acc float32
		for e, col := range cols {
			xv := x[col]
			if xv == 0 {
				continue
			}
			// The conversion rounds the product like the closure's
			// return does, so no platform fuses it into the add.
			m := float32(vals[e] * xv)
			if row := rows[e]; row != curRow {
				if curRow >= 0 {
					out[curRow] = out[curRow] + acc
				}
				curRow, acc = row, m
				continue
			}
			acc = acc + m
		}
		if curRow >= 0 {
			out[curRow] = out[curRow] + acc
		}
	}
}

// ipBFS: Matrix_Op = the source's own id for frontier sources (the
// skip already dropped the +Inf ones), Reduce = min(a, b) spelled as
// the ring spells it: a if a < b, else b.
func ipBFS(part *IPPartition, segs []Seg, x, out matrix.Dense) {
	for _, seg := range segs {
		rows, cols := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi]
		curRow := int32(-1)
		var acc float32
		for e, col := range cols {
			if x[col] == inf32 {
				continue
			}
			m := float32(col)
			if row := rows[e]; row != curRow {
				if curRow >= 0 && !(out[curRow] < acc) {
					out[curRow] = acc
				}
				curRow, acc = row, m
				continue
			}
			if !(acc < m) {
				acc = m
			}
		}
		if curRow >= 0 && !(out[curRow] < acc) {
			out[curRow] = acc
		}
	}
}

// ipSSSP: Matrix_Op = min(V_src + Sp, V_dst) with V_dst read once per
// row run, Reduce = min, +Inf sources skipped.
func ipSSSP(part *IPPartition, segs []Seg, x, out, prev matrix.Dense) {
	for _, seg := range segs {
		rows, cols, vals := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi], part.Val[seg.Lo:seg.Hi]
		curRow := int32(-1)
		var acc, dv float32
		for e, col := range cols {
			xv := x[col]
			if xv == inf32 {
				continue
			}
			m := xv + vals[e]
			if row := rows[e]; row != curRow {
				if curRow >= 0 && !(out[curRow] < acc) {
					out[curRow] = acc
				}
				curRow, dv = row, prev[row]
				if dv < m {
					m = dv
				}
				acc = m
				continue
			}
			if dv < m {
				m = dv
			}
			if !(acc < m) {
				acc = m
			}
		}
		if curRow >= 0 && !(out[curRow] < acc) {
			out[curRow] = acc
		}
	}
}

// ipPR: y holds V_src/deg(src) from the per-source pre-pass, so the
// edge loop is a gather and an add; the matrix values are not read.
// Nothing is skipped, so every row run flushes and the loop can walk
// run by run.
func ipPR(part *IPPartition, segs []Seg, y, out matrix.Dense) {
	for _, seg := range segs {
		rows, cols := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi]
		for e := 0; e < len(cols); {
			row, acc := rows[e], y[cols[e]]
			for e++; e < len(cols) && rows[e] == row; e++ {
				acc = acc + y[cols[e]]
			}
			out[row] = out[row] + acc
		}
	}
}

// ipCF: Matrix_Op = (Sp − V_src·V_dst)·V_src − λ·V_dst, Reduce = +,
// nothing skipped; V_dst is read once per row run.
func ipCF(part *IPPartition, segs []Seg, x, out, prev matrix.Dense, lambda float32) {
	for _, seg := range segs {
		rows, cols, vals := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi], part.Val[seg.Lo:seg.Hi]
		for e := 0; e < len(cols); {
			row := rows[e]
			dv := prev[row]
			xv := x[cols[e]]
			acc := (vals[e]-xv*dv)*xv - lambda*dv
			for e++; e < len(cols) && rows[e] == row; e++ {
				xv = x[cols[e]]
				acc = acc + float32((vals[e]-xv*dv)*xv-lambda*dv)
			}
			out[row] = out[row] + acc
		}
	}
}

// ipClosures is the fallback for rings without a Kind (custom.go,
// bc.go): the same schedule through the ring's closures, the lane's
// context hoisted out of the element loop.
func ipClosures(part *IPPartition, segs []Seg, x, out matrix.Dense, op *Operand) {
	ring := &op.Ring
	matOp, reduce := ring.MatOp, ring.Reduce
	ident := ring.Identity
	skip := !ring.DenseFrontier
	needsDeg, needsPrev := ring.NeedsSrcDeg, ring.NeedsDstVal
	ctx := op.Ctx
	for _, seg := range segs {
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
					staged[pe] = opPEPass(NopProbe{}, part, t, fs[l], &ops[l], lo, hi, 0, opPEAddrs{})
				}
				tileOut[l][t] = opLCPPass(NopProbe{}, staged, &ops[l], stagingAddr, 0)
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
