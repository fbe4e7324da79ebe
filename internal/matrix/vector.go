package matrix

import (
	"fmt"
	"sort"
)

// Dense is a dense vector: one value per vertex. The IP kernel consumes
// and produces Dense frontiers.
type Dense []float32

// SparseVec is the (index, value) tuple representation the paper's OP
// kernel consumes (§III-A). Idx is sorted ascending with no duplicates.
type SparseVec struct {
	N   int // logical length
	Idx []int32
	Val []float32
}

// NNZ returns the number of stored (explicit) entries.
func (v *SparseVec) NNZ() int { return len(v.Idx) }

// Density returns NNZ/N, the quantity the CoSPARSE decision tree keys on.
func (v *SparseVec) Density() float64 {
	if v.N == 0 {
		return 0
	}
	return float64(v.NNZ()) / float64(v.N)
}

// Validate checks the SparseVec invariants.
func (v *SparseVec) Validate() error {
	if len(v.Idx) != len(v.Val) {
		return fmt.Errorf("matrix: SparseVec slice lengths disagree: %d/%d", len(v.Idx), len(v.Val))
	}
	for k, i := range v.Idx {
		if i < 0 || int(i) >= v.N {
			return fmt.Errorf("matrix: SparseVec index %d out of range [0,%d)", i, v.N)
		}
		if k > 0 && i <= v.Idx[k-1] {
			return fmt.Errorf("matrix: SparseVec indices not strictly ascending at %d", k)
		}
	}
	return nil
}

// NewSparseVec builds a sparse vector from unsorted (index, value)
// pairs, sorting and rejecting duplicates or out-of-range indices.
func NewSparseVec(n int, idx []int32, val []float32) (*SparseVec, error) {
	if len(idx) != len(val) {
		return nil, fmt.Errorf("matrix: NewSparseVec: %d indices but %d values", len(idx), len(val))
	}
	type pair struct {
		i int32
		v float32
	}
	pairs := make([]pair, len(idx))
	for k := range idx {
		pairs[k] = pair{idx[k], val[k]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	out := &SparseVec{N: n, Idx: make([]int32, 0, len(idx)), Val: make([]float32, 0, len(idx))}
	for k, p := range pairs {
		if p.i < 0 || int(p.i) >= n {
			return nil, fmt.Errorf("matrix: NewSparseVec: index %d out of range [0,%d)", p.i, n)
		}
		if k > 0 && p.i == pairs[k-1].i {
			return nil, fmt.Errorf("matrix: NewSparseVec: duplicate index %d", p.i)
		}
		out.Idx = append(out.Idx, p.i)
		out.Val = append(out.Val, p.v)
	}
	return out, nil
}

// ToDense scatters the sparse vector into a dense one, with `fill` in
// the implicit positions. Graph semirings use their identity (e.g. +Inf
// for min-plus) as fill, not necessarily zero.
func (v *SparseVec) ToDense(fill float32) Dense {
	d := make(Dense, v.N)
	for i := range d {
		d[i] = fill
	}
	for k, i := range v.Idx {
		d[i] = v.Val[k]
	}
	return d
}

// Clone returns a copy of the dense vector.
func (d Dense) Clone() Dense {
	out := make(Dense, len(d))
	copy(out, d)
	return out
}

// Clone returns a deep copy of the sparse vector.
func (v *SparseVec) Clone() *SparseVec {
	out := &SparseVec{N: v.N, Idx: make([]int32, len(v.Idx)), Val: make([]float32, len(v.Val))}
	copy(out.Idx, v.Idx)
	copy(out.Val, v.Val)
	return out
}
