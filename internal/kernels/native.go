package kernels

import (
	"runtime"
	"sync"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// This file and native_multi.go are the native execution backend's
// functional layer: the OP, scatter-merge and conversion passes are the
// same generic bodies the simulator walks (op.go, passes.go),
// instantiated with NopProbe; the IP pass and the dense merge that
// follows it are probe-free loops replaying the generic bodies'
// operation order (nativeIPPELanes: one loop per Table I row, closures
// for custom rings). All are driven goroutine-parallel across
// GOMAXPROCS workers — the chunking pattern of baseline.RunCSRSpMV —
// over units disjoint in their writes (PE row partitions for IP, tiles
// for OP, contiguous element ranges for the merges), so they need no
// locks, and every unit runs in the same internal order as under the
// simulator, so results are bit-identical across backends — including
// order-sensitive float32 reductions (PR, CF).
//
// The min rings (BFS, SSSP) go further where min is order-free
// (MinRingFast): their pull is one flat min per edge, their merges are
// two comparisons per element without closure calls (minMerge), and
// their push (minPush) is the one pass whose writers share rows:
// workers claim frontier columns dynamically and lower each row with an
// atomic CAS-min on its bits, which reaches the same bits in any
// interleaving. Run on the lane's own values it is also the merge and
// the next frontier (NativePushMerge).

// parallelChunks splits [0, n) into at most GOMAXPROCS contiguous
// chunks, runs fn(lo, hi) on each from its own goroutine, and returns
// the chunks' results in chunk order. One GOMAXPROCS read fixes both
// the chunk count and the result slots.
func parallelChunks[T any](n int, fn func(lo, hi int32) T) []T {
	w := max(min(runtime.GOMAXPROCS(0), n), 1)
	b := splitEven(n, w)
	res := make([]T, w)
	if w == 1 {
		res[0] = fn(b[0], b[1])
		return res
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for c := range w {
		go func() {
			defer wg.Done()
			res[c] = fn(b[c], b[c+1])
		}()
	}
	wg.Wait()
	return res
}

// parallelFor is parallelChunks for a pass with no per-chunk result.
func parallelFor(n int, fn func(lo, hi int32)) {
	parallelChunks(n, func(lo, hi int32) struct{} {
		fn(lo, hi)
		return struct{}{}
	})
}

// minMerge reports whether ring merges as a plain min: BFS and SSSP
// with no Vector_Op, where mergeValue keeps a OnceOnly row that is
// already set and is otherwise Reduce(contrib, old) = contrib if
// contrib < old, else old — and Improving is that same contrib < old.
// The specialised merges evaluate exactly those comparisons, so they
// reach mergeValue's bits and frontier for every float, NaN included.
func minMerge(r *semiring.Semiring) bool {
	switch r.Kind {
	case semiring.KindBFS, semiring.KindSSSP:
		return r.VecOp == nil
	}
	return false
}

// NativeMergeDense is the host post-IP merge, parallel over contiguous
// element ranges. Semantics match RunMergeDense: vals is updated in
// place and returned with the extracted frontier (nil for
// dense-frontier rings).
func NativeMergeDense(contrib, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec) {
	n := len(vals)
	ring := &op.Ring
	extract := !ring.DenseFrontier
	fast, once, ident := minMerge(ring), ring.OnceOnly, ring.Identity
	perChunk := parallelChunks(n, func(lo, hi int32) []int32 {
		// mergeDenseRange without the probe: a generic body calls even
		// NopProbe's methods through its dictionary, four indirect
		// calls per element on the pass every pull iteration ends with.
		var changed []int32
		if fast {
			for i := lo; i < hi; i++ {
				old := vals[i]
				if once && old != ident {
					continue
				}
				if c := contrib[i]; c < old {
					vals[i] = c
					changed = append(changed, i)
				}
			}
			return changed
		}
		for i := lo; i < hi; i++ {
			old := vals[i]
			nv := mergeValue(&op, i, contrib[i], old)
			vals[i] = nv
			if extract && ring.Improving(nv, old) {
				changed = append(changed, i)
			}
		}
		return changed
	})
	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleFrontier(n, perChunk, vals)
	}
	return vals, frontier
}

// NativeScatterMerge is the host post-OP merge, parallel over
// contiguous ranges of the sparse contribution (contrib.Idx is sorted
// and unique, so ranges write disjoint destinations). The min rings
// merge through the same comparisons as NativeMergeDense's.
func NativeScatterMerge(contrib *matrix.SparseVec, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec) {
	ring := &op.Ring
	cost := mergeCost(&op)
	extract := !ring.DenseFrontier
	fast, once, ident := minMerge(ring), ring.OnceOnly, ring.Identity
	perChunk := parallelChunks(contrib.NNZ(), func(lo, hi int32) []int32 {
		if !fast {
			return scatterMergeRange(NopProbe{}, lo, hi, contrib, vals, &op, cost, extract, scatterAddrs{})
		}
		var changed []int32
		idx, cv := contrib.Idx[lo:hi], contrib.Val[lo:hi]
		cv = cv[:len(idx)]
		for k, i := range idx {
			old := vals[i]
			if once && old != ident {
				continue
			}
			if c := cv[k]; c < old {
				vals[i] = c
				changed = append(changed, lo+int32(k))
			}
		}
		return changed
	})
	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleScatterFrontier(contrib, perChunk, vals)
	}
	return vals, frontier
}

// NativeFrontierDense is the host dense-frontier conversion. Unlike the
// simulator — where clear and set ranges from different PEs interleave
// in simulated time — the native pass clears everything before setting
// anything, which is the order that preserves every current-frontier
// value when an index appears in both lists.
func NativeFrontierDense(buf matrix.Dense, clear, set *matrix.SparseVec, op Operand) matrix.Dense {
	if clear != nil {
		parallelFor(clear.NNZ(), func(lo, hi int32) {
			for k := lo; k < hi; k++ {
				buf[clear.Idx[k]] = op.Ring.Identity
			}
		})
	}
	if set != nil {
		parallelFor(set.NNZ(), func(lo, hi int32) {
			for k := lo; k < hi; k++ {
				buf[set.Idx[k]] = set.Val[k]
			}
		})
	}
	return buf
}
