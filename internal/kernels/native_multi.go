package kernels

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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
// probe-free loop per built-in Table I row (nativeIPPELanes; PageRank's
// picks one of two walks per vblock segment by its run lengths, see
// ipPR), with the semiring closures as the fallback for custom rings,
// and keeps each PE's COO share cache-resident across lanes. The OP
// side has one path per ring class: the min rings' iterations run as
// one fused CAS-min push over the whole-graph column index that is its
// own merge (NativePushMerge), and every other lane runs the shared
// pass bodies with NopProbe over the tiles, lanes sequential per tile
// (NativeOPMulti), then NativeScatterMerge. Every lane's result is
// bit-identical to the simulator's and independent of how many lanes
// ride along: the sum rings replay the simulated passes' float
// operation order exactly, and the min-ring forms run only where min
// does not depend on that order (MinRingFast) — so they ignore it: the
// BFS/SSSP pull is one flat min per edge over the PE's elements, the
// push splits the frontier however its workers claim it, and the
// vblock row runs and tiles the simulator needs do not exist for them.

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
// sparse-frontier rings skip identity-valued sources. PageRank's
// branch-free walk stores out[row] + acc after every element instead,
// which ends each run on the same bits (see ipPR). So every float32
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
// Nothing is skipped, so every row run flushes, and each segment takes
// one of two walks that store the same bits: prRunWalk where its runs
// are long, prSelectWalk where they are short. Rows ascend within a
// segment (Validate checks it), so its element count over the rows it
// spans is a lower bound on its mean run length, read from two loads.
func ipPR(part *IPPartition, segs []Seg, y, out matrix.Dense) {
	for _, seg := range segs {
		rows, cols := part.Row[seg.Lo:seg.Hi], part.Col[seg.Lo:seg.Hi]
		if len(rows) >= prLongRun*int(rows[len(rows)-1]-rows[0]+1) {
			prRunWalk(rows, cols, y, out)
		} else {
			prSelectWalk(rows, cols, y, out)
		}
	}
}

// prLongRun is the elements per spanned row from which a segment's
// runs count as long. Below it prRunWalk mispredicts its run exit about
// once a run; from it on, prSelectWalk's chain through out[row] (each
// element's load of it forwards from the previous element's store)
// costs more than the exits do. BenchmarkNativeIP's pr segments hold
// 1–3 elements per spanned row and its pr-longruns ones 10 or more; on
// a 2^15-vertex graph between them the crossover lay between 4 and 6.
const prLongRun = 4

// prRunWalk walks one segment run by run: the first contribution of a
// row seeds acc, later ones add into it, and the run ends with
// out[row] += acc.
func prRunWalk(rows, cols []int32, y, out matrix.Dense) {
	for e := 0; e < len(cols); {
		row, acc := rows[e], y[cols[e]]
		for e++; e < len(cols) && rows[e] == row; e++ {
			acc = acc + y[cols[e]]
		}
		out[row] = out[row] + acc
	}
}

// prSelectWalk walks one segment with no branch on the row: every
// element selects whether it starts a run or extends one, and stores
// base + acc, where base is out[row] as the run found it. Each row is
// one run within a segment, so a run's last store is the very
// base + acc prRunWalk's flush computes. The selects act on the bits,
// which Go compiles to conditional moves, as it does not for floats.
func prSelectWalk(rows, cols []int32, y, out matrix.Dense) {
	ob := bitsOf(out)
	cur := int32(-1)
	var acc float32
	var base uint32
	rows = rows[:len(cols)]
	for e, col := range cols {
		row, v := rows[e], y[col]
		a, b, sum := math.Float32bits(v), ob[row], math.Float32bits(acc+v)
		if row == cur {
			a, b = sum, base
		}
		acc, base, cur = math.Float32frombits(a), b, row
		out[row] = math.Float32frombits(base) + acc
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

// NativeOPMulti runs k outer-product passes on the host, one body for
// every ring: the PE column passes and the LCP merge over the tiles,
// instantiated with NopProbe — the simulator-order reference the fused
// min-ring push (NativePushMerge) is held to. It runs parallel over
// tiles with the lanes sequential within each tile — the tile's CSC
// slice is traversed back to back for all of them while it is
// cache-resident — and with pesPerTile matching the sim geometry, so
// its frontier split and merge order match RunOP exactly. Per-lane
// results are bit-identical across backends and lane counts.
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
	peCols := make([][]int32, k)
	tileOut := make([][][]opPair, k) // [lane][tile]
	for l := range fs {
		if fs[l].N != part.C {
			panic("kernels: NativeOPMulti frontier length mismatch")
		}
		peCols[l] = splitEven(fs[l].NNZ(), pesPerTile)
		tileOut[l] = make([][]opPair, part.Tiles)
	}
	parallelFor(part.Tiles, func(tlo, thi int32) {
		stagingAddr := make([]uint64, pesPerTile)
		staged := make([][]opPair, pesPerTile)
		for t := int(tlo); t < int(thi); t++ {
			for l := range fs {
				clear(staged)
				for pe := 0; pe < pesPerTile; pe++ {
					lo, hi := peCols[l][pe], peCols[l][pe+1]
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
	for l := range outs {
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

// NativePushMerge runs one OP iteration of a min-ring lane as one
// pass that is its own merge: the push lowers vals in place, and the
// next frontier is read off the lane's change bitmap (in op.Scratch,
// allocated when nil). vals and the frontier are bit-identical to
// NativeOPMulti's heap pass followed by NativeScatterMerge, the
// simulator's order: a row drops exactly when some candidate lies
// below its value, which is when the merge finds the pushed minimum —
// min(candidates, V_dst) for SSSP — below it, and BFS skips the rows
// the merge's OnceOnly keeps. The lane qualifies when MinRingFast and
// minMerge hold and, for SSSP, op.Prev is vals itself (V_dst is the
// value the push lowers); ok is false, and nothing is touched, for any
// other lane. push is the wall time of the push alone; the rest of the
// call is the emit.
func NativePushMerge(part *OPPartition, f *matrix.SparseVec, vals matrix.Dense, op Operand) (next *matrix.SparseVec, push time.Duration, ok bool) {
	ring := &op.Ring
	sssp := ring.Kind == semiring.KindSSSP
	if f.N != part.C || len(vals) != part.R {
		panic("kernels: NativePushMerge vector length mismatch")
	}
	if !part.MinRingFast(ring) || !minMerge(ring) ||
		sssp && (len(op.Prev) != len(vals) || len(vals) > 0 && &op.Prev[0] != &vals[0]) {
		return nil, 0, false
	}
	s := op.Scratch
	if s == nil {
		s = new(Scratch)
	}
	words := (part.R + 31) / 32
	if cap(s.seen) < words {
		s.seen = make([]uint32, words)
	}
	seen := s.seen[:words]
	t0 := time.Now()
	n := minPush(part.columns(), f, sssp, ring.OnceOnly, bitsOf(vals), seen)
	push = time.Since(t0)
	return emitBits(part.R, bitsOf(vals), seen, n), push, true
}

// pushChunk is how many frontier entries a push worker claims from the
// shared cursor at a time. A static split would be lopsided — a hub
// column holds thousands of edges — and a claim per entry would
// contend on the cursor.
const pushChunk = 64

// minPush is the native min-ring push, NativePushMerge's pass: every
// edge (r, j) of every frontier column j proposes a candidate for row
// r — bits(f.Val[k] + w) for SSSP; for BFS bits(float32(j)), or +Inf
// for a source at +Inf — and lowers tgt[r], the lane's value, to it
// with a CAS-min on the bits, as Ligra's writeMin does. MinRingFast
// admits only values on which min is order-free and follows the bit
// order, so tgt ends at the same bits however the workers interleave.
// Candidates read f's own values and never tgt, so the pass is a
// Jacobi step even where a frontier row drops mid-pass. The first drop
// of a row sets its bit in seen, and minPush returns how many bits it
// set.
//
// once is BFS's OnceOnly: a row may be set in one iteration only. A
// row off the identity (+Inf) whose bit is clear was set in an earlier
// iteration, and the push skips it. A row at the identity gets its bit
// before its CAS, so a concurrent proposer that sees the lowered value
// sees the bit too and never mistakes the row for one set earlier.
//
// GOMAXPROCS workers claim pushChunk frontier entries at a time from an
// atomic cursor; every access to tgt and seen is atomic, so concurrent
// writers need no locks.
func minPush(cols *colIndex, f *matrix.SparseVec, sssp, once bool, tgt, seen []uint32) int {
	nf := f.NNZ()
	var cursor atomic.Int64
	work := func() int {
		set := 0
		for {
			hi := int(cursor.Add(pushChunk))
			lo := hi - pushChunk
			if lo >= nf {
				return set
			}
			for k := lo; k < min(hi, nf); k++ {
				j, fv := f.Idx[k], f.Val[k]
				rows := cols.row[cols.ptr[j]:cols.ptr[j+1]]
				if sssp {
					w := cols.val[cols.ptr[j]:cols.ptr[j+1]]
					w = w[:len(rows)]
					for q, r := range rows {
						if c := math.Float32bits(fv + w[q]); c < atomic.LoadUint32(&tgt[r]) {
							set += lowerTo(tgt, seen, r, c, once)
						}
					}
					continue
				}
				c := uint32(infBits)
				if fv != inf32 {
					c = math.Float32bits(float32(j))
				}
				for _, r := range rows {
					if c < atomic.LoadUint32(&tgt[r]) {
						set += lowerTo(tgt, seen, r, c, once)
					}
				}
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (nf+pushChunk-1)/pushChunk)
	if workers <= 1 {
		return work()
	}
	sets := make([]int, workers)
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := range workers - 1 {
		go func() {
			defer wg.Done()
			sets[w] = work()
		}()
	}
	sets[workers-1] = work()
	wg.Wait()
	total := 0
	for _, n := range sets {
		total += n
	}
	return total
}

// lowerTo is minPush's slow path, for a candidate c found below
// tgt[r]: the CAS-min loop and the bitmap, under the OnceOnly rule when
// once is set. It returns 1 if it set r's bit, else 0.
func lowerTo(tgt, seen []uint32, r int32, c uint32, once bool) int {
	v, word, bit := &tgt[r], &seen[r>>5], uint32(1)<<(r&31)
	old := atomic.LoadUint32(v)
	set := 0
	if once && c < old {
		if old != infBits {
			if atomic.LoadUint32(word)&bit == 0 {
				return 0 // set in an earlier iteration
			}
		} else if atomic.OrUint32(word, bit)&bit == 0 {
			set = 1
		}
	}
	for c < old {
		if atomic.CompareAndSwapUint32(v, old, c) {
			if !once && atomic.LoadUint32(word)&bit == 0 && atomic.OrUint32(word, bit)&bit == 0 {
				set = 1
			}
			return set
		}
		old = atomic.LoadUint32(v)
	}
	return set
}

// emitBits returns the n rows set in seen, ascending, each with its
// value in tgt, and leaves seen clear, each word cleared as it is read.
// count is the number of bits set, which sizes the result exactly. It
// runs after the push, so it reads plainly.
func emitBits(n int, tgt, seen []uint32, count int) *matrix.SparseVec {
	out := &matrix.SparseVec{N: n}
	if count == 0 {
		return out
	}
	out.Idx, out.Val = make([]int32, count), make([]float32, count)
	at := 0
	for w, word := range seen {
		if word == 0 {
			continue
		}
		seen[w] = 0
		for ; word != 0; word &= word - 1 {
			r := int32(w<<5 + bits.TrailingZeros32(word))
			out.Idx[at], out.Val[at] = r, math.Float32frombits(tgt[r])
			at++
		}
	}
	return out
}
