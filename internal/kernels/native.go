package kernels

import (
	"runtime"
	"sync"

	"cosparse/internal/matrix"
)

// This file and native_multi.go are the native execution backend's
// functional layer: the OP, scatter-merge and conversion passes are the
// same generic bodies the simulator walks (op.go, passes.go),
// instantiated with NopProbe; the IP pass and the dense merge that
// follows it are probe-free loops replaying the generic bodies'
// operation order (nativeIPPELanes: one loop per Table I row, closures
// for custom rings). All are driven goroutine-parallel
// across GOMAXPROCS workers — the chunking pattern of
// baseline.RunCSRSpMV. Parallel units are always disjoint in their
// writes (PE row partitions for IP, tiles for OP, contiguous element
// ranges for the merges), so no locks are needed, and every unit runs
// in the same internal order as under the simulator, so results are
// bit-identical across backends — including order-sensitive float32
// reductions (PR, CF).

// parallelChunks splits [0, n) into at most GOMAXPROCS contiguous
// chunks, runs fn(chunk, lo, hi) on each from its own goroutine, and
// returns the chunk count (so callers can pre-size per-chunk result
// slots).
func parallelChunks(n int, fn func(c int, lo, hi int32)) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	b := splitEven(n, w)
	if w == 1 {
		fn(0, b[0], b[1])
		return 1
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for c := 0; c < w; c++ {
		go func(c int) {
			defer wg.Done()
			fn(c, b[c], b[c+1])
		}(c)
	}
	wg.Wait()
	return w
}

// NativeMergeDense is the host post-IP merge, parallel over contiguous
// element ranges. Semantics match RunMergeDense: vals is updated in
// place and returned with the extracted frontier (nil for
// dense-frontier rings).
func NativeMergeDense(contrib, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec) {
	n := len(vals)
	extract := !op.Ring.DenseFrontier
	perChunk := make([][]int32, runtime.GOMAXPROCS(0)+1)
	used := parallelChunks(n, func(c int, lo, hi int32) {
		// mergeDenseRange without the probe: a generic body calls even
		// NopProbe's methods through its dictionary, four indirect
		// calls per element on the pass every pull iteration ends with.
		var changed []int32
		for i := lo; i < hi; i++ {
			old := vals[i]
			nv := mergeValue(&op, i, contrib[i], old)
			vals[i] = nv
			if extract && op.Ring.Improving(nv, old) {
				changed = append(changed, i)
			}
		}
		perChunk[c] = changed
	})
	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleFrontier(n, perChunk[:used], vals)
	}
	return vals, frontier
}

// NativeScatterMerge is the host post-OP merge, parallel over
// contiguous ranges of the sparse contribution (contrib.Idx is sorted
// and unique, so ranges write disjoint destinations).
func NativeScatterMerge(contrib *matrix.SparseVec, vals matrix.Dense, op Operand) (matrix.Dense, *matrix.SparseVec) {
	cost := mergeCost(&op)
	extract := !op.Ring.DenseFrontier
	perChunk := make([][]int32, runtime.GOMAXPROCS(0)+1)
	used := parallelChunks(contrib.NNZ(), func(c int, lo, hi int32) {
		perChunk[c] = scatterMergeRange(NopProbe{}, lo, hi, contrib, vals, &op, cost, extract, scatterAddrs{})
	})
	var frontier *matrix.SparseVec
	if extract {
		frontier = assembleScatterFrontier(contrib, perChunk[:used], vals)
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
		parallelChunks(clear.NNZ(), func(_ int, lo, hi int32) {
			for k := lo; k < hi; k++ {
				buf[clear.Idx[k]] = op.Ring.Identity
			}
		})
	}
	if set != nil {
		parallelChunks(set.NNZ(), func(_ int, lo, hi int32) {
			for k := lo; k < hi; k++ {
				buf[set.Idx[k]] = set.Val[k]
			}
		})
	}
	return buf
}
