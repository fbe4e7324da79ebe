package kernels

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

var inf32 = float32(math.Inf(1))

// infBits is +Inf's bit pattern, the largest any min-ring value takes.
const infBits = 0x7f800000

// bitsOf views a float32 slice as its bit patterns. The min-ring loops
// compare non-negative floats as unsigned integers: same order, but an
// integer min compiles to a conditional move where a float compare
// needs a branch.
func bitsOf(x []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
}

// Host-side SpMV kernels, the native backend's one body per dataflow:
// a solo run is a one-lane call. The IP side runs one hand-specialised
// probe-free loop per built-in Table I row (nativeIPPELanes), with the
// semiring closures as the fallback for custom rings, and keeps each
// PE's COO share cache-resident across lanes; the OP side runs the
// min rings through a dense accumulator (opMinTile) and every other
// ring through the shared pass bodies with NopProbe, lanes sequential
// per tile. Every lane's result is bit-identical to the simulator's and
// independent of how many lanes ride along: the sum rings replay the
// simulated passes' float operation order exactly, and the min-ring
// forms run only where min does not depend on that order (MinRingFast)
// — so they ignore it: the BFS/SSSP pull is one flat min per edge over
// the PE's elements, and the vblock row runs the simulator's scratchpad
// needs do not exist for them.

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
		switch ops[l].Ring.Kind {
		case semiring.KindPR, semiring.KindBFS:
			srcs[l] = grow(&s.y, part.C)
			hoist = true
		}
	}
	if hoist {
		// PR/PPR's and BFS's Matrix_Op read only the source: apply it
		// once per source instead of once per edge. The edge loop then
		// reduces the same float32 the closure would have produced.
		parallelFor(part.C, func(lo, hi int32) {
			for l := range ops {
				x, y := xs[l][lo:hi], srcs[l][lo:hi]
				switch ops[l].Ring.Kind {
				case semiring.KindPR:
					for v, d := range ops[l].Deg[lo:hi] {
						if d == 0 {
							y[v] = 0
						} else {
							y[v] = x[v] / float32(d)
						}
					}
				case semiring.KindBFS:
					// A frontier source proposes its own id, any other
					// source +Inf.
					for v, xv := range x {
						y[v] = inf32
						if xv != inf32 {
							y[v] = float32(lo + int32(v))
						}
					}
				}
			}
		})
	}
	parallelFor(part.NumPEs, func(lo, hi int32) {
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
// constructors set, never on Name). The sum-ring loops replay the
// simulated pass's per-lane sequence (ipBlockPEPass): per segment the
// first contribution of a row seeds acc, later ones reduce into it, and
// out[row] = Reduce(out[row], acc) on row change and segment end;
// sparse-frontier rings skip identity-valued sources. So every float32
// rounding step matches the simulated pass and results stay bit-identical across
// backends and lane counts. The min-ring loops reach the same bits with
// neither the skip nor the segments: one min per edge over the PE's
// whole element range, in any order (see ipBFS, ipSSSP); SSSP on a
// graph outside minPlusSafe takes the closure loop. The PE first
// resets its own output rows to the identity.
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
			ipBFS(part, pe, x, out)
		case semiring.KindSSSP:
			if part.minPlusSafe {
				ipSSSP(part, pe, x, out, op.Prev)
			} else {
				ipClosures(part, segs, x, out, op)
			}
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

// The min-ring pulls walk a PE's elements as four interleaved streams,
// each a quarter of the range long. One stream would chain every edge
// of a long row (a dense graph, or one vblock) through the same
// load–min–store of out[row], each waiting for the last; a quarter of
// the range apart, the streams rarely share a row, so four such chains
// run at once. Short rows gain nothing from it and lose nothing.

// ipBFS: y holds each source's proposal from the pre-pass (its own id
// for a frontier source, +Inf for any other), so the pull is one
// unsigned min on the bits per edge over the PE's whole element range:
// no skip, no row runs, no vblock segments. Proposals are non-negative,
// where min is order-free, and an inactive source's +Inf leaves
// out[row] where the skipping closure loop leaves it.
func ipBFS(part *IPPartition, pe int, y, out matrix.Dense) {
	lo, hi := part.PEPtr[pe], part.PEPtr[pe+1]
	rows, cols := part.Row[lo:hi], part.Col[lo:hi]
	yb, ob := bitsOf(y), bitsOf(out)
	q := len(cols) / 4
	for e := 4 * q; e < len(cols); e++ {
		r := rows[e]
		ob[r] = min(ob[r], yb[cols[e]])
	}
	r0, r1, r2, r3 := rows[:q], rows[q:2*q], rows[2*q:3*q], rows[3*q:4*q]
	c0, c1, c2, c3 := cols[:q], cols[q:2*q], cols[2*q:3*q], cols[3*q:4*q]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	c0, c1, c2, c3 = c0[:len(r0)], c1[:len(r0)], c2[:len(r0)], c3[:len(r0)]
	for i, a := range r0 {
		b, c, d := r1[i], r2[i], r3[i]
		ob[a] = min(ob[a], yb[c0[i]])
		ob[b] = min(ob[b], yb[c1[i]])
		ob[c] = min(ob[c], yb[c2[i]])
		ob[d] = min(ob[d], yb[c3[i]])
	}
}

// ipSSSP: Matrix_Op = min(V_src + Sp, V_dst), Reduce = min, as one
// unsigned min on the bits per edge over the PE's element range
// (minPlusSafe keeps every operand non-negative), then one pass over
// the PE's own rows for V_dst. An inactive source's +Inf plus a finite
// weight is +Inf, so it needs no skip; but the closure loop applies
// min(·, V_dst) only to rows holding a frontier source, so a row whose
// sums are all +Inf stays +Inf. Any other row ends at min(its finite
// sums, V_dst) — the bits the closure loop's per-run guard reaches.
func ipSSSP(part *IPPartition, pe int, x, out, prev matrix.Dense) {
	lo, hi := part.PEPtr[pe], part.PEPtr[pe+1]
	rows, cols, vals := part.Row[lo:hi], part.Col[lo:hi], part.Val[lo:hi]
	ob := bitsOf(out)
	q := len(cols) / 4
	for e := 4 * q; e < len(cols); e++ {
		r := rows[e]
		ob[r] = min(ob[r], math.Float32bits(x[cols[e]]+vals[e]))
	}
	r0, r1, r2, r3 := rows[:q], rows[q:2*q], rows[2*q:3*q], rows[3*q:4*q]
	c0, c1, c2, c3 := cols[:q], cols[q:2*q], cols[2*q:3*q], cols[3*q:4*q]
	v0, v1, v2, v3 := vals[:q], vals[q:2*q], vals[2*q:3*q], vals[3*q:4*q]
	r1, r2, r3 = r1[:len(r0)], r2[:len(r0)], r3[:len(r0)]
	c0, c1, c2, c3 = c0[:len(r0)], c1[:len(r0)], c2[:len(r0)], c3[:len(r0)]
	v0, v1, v2, v3 = v0[:len(r0)], v1[:len(r0)], v2[:len(r0)], v3[:len(r0)]
	for i, a := range r0 {
		b, c, d := r1[i], r2[i], r3[i]
		ob[a] = min(ob[a], math.Float32bits(x[c0[i]]+v0[i]))
		ob[b] = min(ob[b], math.Float32bits(x[c1[i]]+v1[i]))
		ob[c] = min(ob[c], math.Float32bits(x[c2[i]]+v2[i]))
		ob[d] = min(ob[d], math.Float32bits(x[c3[i]]+v3[i]))
	}
	rlo, rhi := part.RowBounds[pe], part.RowBounds[pe+1]
	own, pb := ob[rlo:rhi], bitsOf(prev[rlo:rhi])
	pb = pb[:len(own)]
	for i, v := range own {
		if v != infBits {
			own[i] = min(v, pb[i])
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
// bc.go) and for SSSP outside minPlusSafe: the same schedule through
// the ring's closures, the lane's context hoisted out of the element
// loop.
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
// cache-resident. A min-ring lane (MinRingFast) runs opMinTile; any
// other lane runs the PE column passes and the LCP merge sequentially,
// with pesPerTile matching the sim geometry, so its frontier split and
// merge order match RunOP exactly. Per-lane results are bit-identical
// across backends and lane counts either way.
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
	peColsPerLane := make([][]int32, k) // nil for a min-ring lane
	anyMin := false
	for l := range fs {
		if fs[l].N != part.C {
			panic("kernels: NativeOPMulti frontier length mismatch")
		}
		if part.MinRingFast(&ops[l].Ring) {
			anyMin = true
		} else {
			peColsPerLane[l] = splitEven(fs[l].NNZ(), pesPerTile)
		}
	}
	tileOut := make([][][]opPair, k) // [lane][tile]
	for l := range tileOut {
		tileOut[l] = make([][]opPair, part.Tiles)
	}
	parallelFor(part.Tiles, func(tlo, thi int32) {
		var acc *minAcc
		if anyMin {
			acc = getMinAcc(part)
		}
		stagingAddr := make([]uint64, pesPerTile)
		staged := make([][]opPair, pesPerTile)
		for t := int(tlo); t < int(thi); t++ {
			for l := 0; l < k; l++ {
				peCols := peColsPerLane[l]
				if peCols == nil {
					tileOut[l][t] = opMinTile(part, t, fs[l], &ops[l], acc)
					continue
				}
				clear(staged)
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
		if acc != nil {
			// Only on the way out of a completed chunk: a panic mid-tile
			// would leave dirty slots, and that buffer must not be reused.
			minAccs.Put(acc)
		}
	})
	outs := make([]*matrix.SparseVec, k)
	for l := 0; l < k; l++ {
		outs[l] = concatTiles(part.R, tileOut[l])
	}
	return outs
}

// concatTiles joins per-tile sorted outputs into one sparse vector,
// sized exactly. Tiles own ascending disjoint row ranges, so the
// concatenation is sorted.
func concatTiles(n int, tiles [][]opPair) *matrix.SparseVec {
	out := &matrix.SparseVec{N: n}
	nnz := 0
	for _, tile := range tiles {
		nnz += len(tile)
	}
	if nnz == 0 {
		return out
	}
	out.Idx, out.Val = make([]int32, 0, nnz), make([]float32, 0, nnz)
	for _, tile := range tiles {
		for _, e := range tile {
			out.Idx = append(out.Idx, e.row)
			out.Val = append(out.Val, e.val)
		}
	}
	return out
}

// minAcc is one worker's dense accumulator for the min-ring push: one
// slot per row of the largest tile, every slot at accFree between
// tiles, plus the list of rows touched since the last emit.
type minAcc struct {
	acc     []uint32
	touched []int32
}

// accFree marks an untouched slot. It is above every candidate's bit
// pattern (none exceeds +Inf's), so the first candidate to reach a slot
// replaces it through the same unsigned min as the rest.
const accFree = math.MaxUint32

// opScanRatio picks how opMinTile emits: scan the whole row buffer when
// at least 1/opScanRatio of the tile's rows were touched, sort the
// touched list otherwise.
const opScanRatio = 16

// minAccs recycles accumulators across calls; one comes back only
// clean (every slot at accFree).
var minAccs sync.Pool

// getMinAcc returns a clean accumulator with a slot for every row of
// part's largest tile.
func getMinAcc(part *OPPartition) *minAcc {
	rows := 0
	for t := 0; t < part.Tiles; t++ {
		rows = max(rows, int(part.RowBounds[t+1]-part.RowBounds[t]))
	}
	a, _ := minAccs.Get().(*minAcc)
	if a == nil {
		a = new(minAcc)
	}
	if len(a.acc) < rows {
		a.acc = make([]uint32, rows)
		for i := range a.acc {
			a.acc[i] = accFree
		}
	}
	return a
}

// opMinTile is tile t's push for one min-ring lane, in place of the
// heap merge and the LCP merge: every frontier column's CSC slice
// scatters its candidates into the worker's row buffer through an
// unsigned min on the bits, the first touch of a row records it, and
// the touched rows come out ascending with their minima. That is the
// row set the heap pass emits — every row of every frontier column,
// +Inf candidates included — and, since MinRingFast admits only values
// on which min does not depend on the order candidates arrive in, the
// same bits the heap's PE split and LCP merge produce.
func opMinTile(part *OPPartition, t int, f *matrix.SparseVec, op *Operand, a *minAcc) []opPair {
	colPtr, rows, vals := part.ColPtr[t], part.Row[t], part.Val[t]
	lo := part.RowBounds[t]
	acc := a.acc[:part.RowBounds[t+1]-lo]
	touched := a.touched[:0]
	sssp := op.Ring.Kind == semiring.KindSSSP
	var prev []uint32
	if sssp {
		prev = bitsOf(op.Prev)
	}
	for k, j := range f.Idx {
		col := rows[colPtr[j]:colPtr[j+1]]
		fv := f.Val[k]
		if sssp {
			// Matrix_Op = min(V_src + Sp, V_dst).
			w := vals[colPtr[j]:colPtr[j+1]]
			w = w[:len(col)]
			for q, r := range col {
				i := r - lo
				v := acc[i]
				if v == accFree {
					touched = append(touched, r)
				}
				acc[i] = min(v, math.Float32bits(fv+w[q]), prev[r])
			}
			continue
		}
		// BFS: a frontier source proposes its own id, any other +Inf.
		cand := uint32(infBits)
		if fv != inf32 {
			cand = math.Float32bits(float32(j))
		}
		for _, r := range col {
			i := r - lo
			v := acc[i]
			if v == accFree {
				touched = append(touched, r)
			}
			acc[i] = min(v, cand)
		}
	}
	a.touched = touched
	out := make([]opPair, len(touched))
	if len(touched)*opScanRatio >= len(acc) {
		n := 0
		for i, v := range acc {
			if v != accFree {
				out[n] = opPair{lo + int32(i), math.Float32frombits(v)}
				acc[i] = accFree
				n++
			}
		}
		return out
	}
	slices.Sort(touched)
	for n, r := range touched {
		out[n] = opPair{r, math.Float32frombits(acc[r-lo])}
		acc[r-lo] = accFree
	}
	return out
}
