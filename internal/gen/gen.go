// Package gen produces the evaluation workloads of the CoSPARSE paper:
// uniformly random sparse matrices, power-law matrices (the paper uses
// NetworkX; we implement Chung–Lu and RMAT, the standard generative
// models for the same degree-distribution family), random frontier
// vectors at controlled densities, and deterministic synthetic
// stand-ins for the real-graph suite of Table III.
//
// Every generator is seeded and fully deterministic so the experiment
// harness is reproducible run-to-run.
package gen

import (
	"fmt"
	"math"
	"sort"

	"cosparse/internal/matrix"
	"cosparse/internal/rng"
)

// ValueMode controls the values attached to generated nonzeros.
type ValueMode int

const (
	// Pattern gives every edge the value 1 (BFS, PR adjacency).
	Pattern ValueMode = iota
	// UniformWeight draws weights uniformly from (0, 1] (SSSP, CF).
	UniformWeight
)

func value(r *rng.Rand, mode ValueMode) float32 {
	switch mode {
	case UniformWeight:
		// Strictly positive so min-plus semirings stay well behaved.
		return r.Float32()*0.999 + 0.001
	default:
		return 1
	}
}

// Uniform generates an n×n matrix whose nnz elements are uniformly
// distributed coordinates (duplicates combined, so the realized nnz can
// be marginally lower at high densities). This mirrors the paper's
// "uniformly random matrices".
func Uniform(n, nnz int, mode ValueMode, seed uint64) *matrix.COO {
	r := rng.New(seed)
	elems := make([]matrix.Coord, nnz)
	for i := range elems {
		elems[i] = matrix.Coord{
			Row: r.Int31n(int32(n)),
			Col: r.Int31n(int32(n)),
			Val: value(r, mode),
		}
	}
	return matrix.MustCOO(n, n, elems)
}

// PowerLaw generates an n×n matrix with approximately nnz elements
// whose row and column marginals follow a Zipf-like power law with the
// given exponent (the Chung–Lu model): vertex i receives expected
// degree proportional to (i+1)^(-exponent), and edges are sampled by
// picking endpoints independently from that distribution. Exponent
// around 0.5–0.6 matches the skew of social networks at these scales.
func PowerLaw(n, nnz int, exponent float64, mode ValueMode, seed uint64) *matrix.COO {
	r := rng.New(seed)
	cdf := zipfCDF(n, exponent)
	elems := make([]matrix.Coord, nnz)
	for i := range elems {
		elems[i] = matrix.Coord{
			Row: sampleCDF(cdf, r),
			Col: sampleCDF(cdf, r),
			Val: value(r, mode),
		}
	}
	return matrix.MustCOO(n, n, elems)
}

// zipfCDF builds the cumulative distribution of P(i) ∝ (i+1)^-s over a
// randomly permuted vertex order, so hubs are not clustered at low ids
// (which would give partitioners an unrealistically easy time).
func zipfCDF(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	// Deterministic permutation keyed off n and s.
	perm := rng.New(uint64(n)*2654435761 + uint64(s*1e6)).Perm(n)
	cdf := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += w[perm[i]] / total
		cdf[i] = acc
	}
	cdf[n-1] = 1
	return cdf
}

func sampleCDF(cdf []float64, r *rng.Rand) int32 {
	u := r.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// RMAT generates a 2^scale × 2^scale matrix with approximately nnz
// elements using the Recursive-MATrix model (a=0.57, b=c=0.19, d=0.05,
// the Graph500 parameters), another standard skewed-graph generator.
func RMAT(scale uint, nnz int, mode ValueMode, seed uint64) *matrix.COO {
	const a, b, c = 0.57, 0.19, 0.19
	r := rng.New(seed)
	n := 1 << scale
	elems := make([]matrix.Coord, nnz)
	for i := range elems {
		var row, col int32
		for lvl := uint(0); lvl < scale; lvl++ {
			u := r.Float64()
			switch {
			case u < a:
				// top-left quadrant
			case u < a+b:
				col |= 1 << lvl
			case u < a+b+c:
				row |= 1 << lvl
			default:
				row |= 1 << lvl
				col |= 1 << lvl
			}
		}
		elems[i] = matrix.Coord{Row: row, Col: col, Val: value(r, mode)}
	}
	return matrix.MustCOO(n, n, elems)
}

// Frontier generates a sparse frontier vector of length n at the given
// density with uniformly random support, the input-vector model used in
// the paper's threshold studies (Figs. 4–6). Values are in (0,1].
func Frontier(n int, density float64, seed uint64) *matrix.SparseVec {
	r := rng.New(seed)
	target := int(math.Round(density * float64(n)))
	if target > n {
		target = n
	}
	if target < 1 && density > 0 {
		target = 1
	}
	// Sample distinct indices: permutation prefix for dense requests,
	// rejection for sparse ones.
	var idx []int32
	if float64(target) > float64(n)/16 {
		perm := r.Perm(n)
		idx = perm[:target]
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	} else {
		seen := make(map[int32]bool, target)
		idx = make([]int32, 0, target)
		for len(idx) < target {
			v := r.Int31n(int32(n))
			if !seen[v] {
				seen[v] = true
				idx = append(idx, v)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	}
	val := make([]float32, len(idx))
	for i := range val {
		val[i] = r.Float32()*0.999 + 0.001
	}
	sv, err := matrix.NewSparseVec(n, idx, val)
	if err != nil {
		panic(fmt.Sprintf("gen: internal error building frontier: %v", err))
	}
	return sv
}

// DegreeStats summarizes a degree sequence; tests use it to verify the
// generators produce the intended distribution shapes.
type DegreeStats struct {
	Max    int32
	Mean   float64
	CV     float64 // coefficient of variation (σ/µ): ~small for uniform, large for power law
	Gini   float64 // inequality of the degree mass
	Zeroes int     // vertices with no stored elements
}

// RowStats computes DegreeStats over the per-row element counts.
func RowStats(m *matrix.COO) DegreeStats {
	return statsOf(m.RowNNZ())
}

// ColStats computes DegreeStats over the per-column element counts.
func ColStats(m *matrix.COO) DegreeStats {
	return statsOf(m.OutDegrees())
}

func statsOf(deg []int32) DegreeStats {
	var s DegreeStats
	if len(deg) == 0 {
		return s
	}
	sum := 0.0
	for _, d := range deg {
		if d > s.Max {
			s.Max = d
		}
		if d == 0 {
			s.Zeroes++
		}
		sum += float64(d)
	}
	s.Mean = sum / float64(len(deg))
	varsum := 0.0
	for _, d := range deg {
		diff := float64(d) - s.Mean
		varsum += diff * diff
	}
	if s.Mean > 0 {
		s.CV = math.Sqrt(varsum/float64(len(deg))) / s.Mean
	}
	sorted := make([]int32, len(deg))
	copy(sorted, deg)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cum := 0.0
	weighted := 0.0
	for i, d := range sorted {
		cum += float64(d)
		weighted += float64(i+1) * float64(d)
	}
	if cum > 0 {
		n := float64(len(deg))
		s.Gini = (2*weighted)/(n*cum) - (n+1)/n
	}
	return s
}
