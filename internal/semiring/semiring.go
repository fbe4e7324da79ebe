// Package semiring defines the algorithm-mapping layer of CoSPARSE
// (paper Table I): a graph algorithm is expressed as a Matrix_Op
// applied to every (matrix nonzero, frontier element) pair, a Reduce
// combining contributions to the same destination, and an optional
// Vector_Op applied to updated destinations afterwards.
//
// The SpMV kernels are generic over a Semiring, so BFS, SSSP, PageRank
// and Collaborative Filtering all run on the same IP/OP machinery —
// exactly the framework abstraction the paper describes in §III-D.
package semiring

import "math"

// Ctx carries per-vertex auxiliary state some operators need: the
// destination vertex's current value (SSSP's triangle inequality, CF's
// gradient) and the source vertex's out-degree (PageRank).
type Ctx struct {
	// Src is the source vertex id of the matrix element being
	// processed (BFS proposes it as the parent label).
	Src int32
	// DstVal is the destination vertex's value from the previous
	// iteration (used by SSSP and CF).
	DstVal float32
	// SrcDeg is the out-degree of the source vertex (used by PR).
	SrcDeg int32
	// Lambda and Beta are CF hyperparameters, carried here so the
	// operator closures stay allocation-free.
	Lambda, Beta float32
	// Alpha is the PR damping factor.
	Alpha float32
	// Dst is the destination vertex id of the value being merged,
	// filled by the merge pass before applying VecOp (PPR's teleport
	// term restarts at the seed only).
	Dst int32
	// Seed is the personalization vertex of a PPR run.
	Seed int32
}

// Kind tags the built-in Table I rows. The native backend selects its
// hand-specialised inner loop by this tag, never by Name (a custom ring
// may call itself "PR"). Only the constructors in this package set it;
// a ring assembled from a literal is KindCustom and runs through its
// closures, and code that replaces MatOp or Reduce on a built-in ring
// must reset Kind to KindCustom.
type Kind uint8

const (
	KindCustom Kind = iota
	KindSpMV
	KindBFS
	KindSSSP
	KindPR // PR and PPR: same Matrix_Op and Reduce, they differ in Vector_Op only
	KindCF
)

// Semiring is one row of Table I.
type Semiring struct {
	// Name identifies the algorithm ("SpMV", "BFS", ...).
	Name string

	// Kind is the built-in row this ring is, or KindCustom.
	Kind Kind

	// Identity is the value of an untouched destination: 0 for (+,×),
	// +Inf for (min,+). It doubles as the dense fill value when
	// converting between sparse and dense frontiers.
	Identity float32

	// MatOp computes the contribution of one matrix nonzero (value
	// spv, source vertex src) combined with the frontier value vsrc.
	MatOp func(spv, vsrc float32, ctx Ctx) float32

	// Reduce combines two contributions to the same destination.
	Reduce func(a, b float32) float32

	// VecOp post-processes an updated destination value, or nil when
	// the paper marks it N/A.
	VecOp func(updated, old float32, ctx Ctx) float32

	// MatOpCost and ReduceCost are the PE cycles the simulator charges
	// per application (in-order single-issue: one cycle per ALU/FPU op).
	MatOpCost, ReduceCost int

	// NeedsDstVal marks operators whose MatOp reads the destination's
	// previous value (SSSP, CF) — the kernel then charges an extra load.
	NeedsDstVal bool

	// NeedsSrcDeg marks operators whose MatOp reads deg(src) (PR).
	NeedsSrcDeg bool

	// Improving reports whether `next` is strictly better than `cur`
	// for frontier construction: changed destinations form the next
	// active set. For (min,+) semirings this is `next < cur`.
	Improving func(next, cur float32) bool

	// OnceOnly marks algorithms where a vertex, once set, never changes
	// (BFS parent assignment): the merge keeps the old value for
	// already-settled destinations.
	OnceOnly bool

	// MergePrev marks monotone propagation algorithms (BFS, SSSP and
	// most custom frontier algorithms): the merge reduces each
	// contribution with the destination's previous value, so untouched
	// vertices keep their state and touched ones only improve. One-shot
	// SpMV and VecOp-based dense algorithms (PR, CF) leave it false —
	// their output replaces (or explicitly incorporates) the old value.
	MergePrev bool

	// DenseFrontier marks algorithms whose active set is always every
	// vertex (PR, CF): the runtime keeps the frontier dense and skips
	// frontier extraction.
	DenseFrontier bool
}

var inf = float32(math.Inf(1))

// SpMV is the plain (+,×) semiring: Matrix_Op = Σ Sp_{src,dst}·V_src.
func SpMV() Semiring {
	return Semiring{
		Name:       "SpMV",
		Kind:       KindSpMV,
		Identity:   0,
		MatOp:      func(spv, vsrc float32, _ Ctx) float32 { return spv * vsrc },
		Reduce:     func(a, b float32) float32 { return a + b },
		MatOpCost:  1,
		ReduceCost: 1,
		Improving:  func(next, cur float32) bool { return next != cur },
	}
}

// BFS is Table I's min(V_src): each active frontier vertex proposes its
// own label, and a destination adopts the minimum proposer as its
// parent. Sources outside the frontier (value = identity) propose
// nothing. Levels fall out of the iteration number in the driver.
func BFS() Semiring {
	return Semiring{
		Name:     "BFS",
		Kind:     KindBFS,
		Identity: inf,
		MatOp: func(_, vsrc float32, ctx Ctx) float32 {
			if math.IsInf(float64(vsrc), 1) {
				return inf // source not in the frontier
			}
			return float32(ctx.Src)
		},
		Reduce: func(a, b float32) float32 {
			if a < b {
				return a
			}
			return b
		},
		MatOpCost:  1,
		ReduceCost: 1,
		Improving:  func(next, cur float32) bool { return next < cur },
		OnceOnly:   true,
		MergePrev:  true,
	}
}

// SSSP is Table I's min(V_src + Sp_{src,dst}, V_dst): relax every edge
// out of the frontier against the destination's current distance.
func SSSP() Semiring {
	return Semiring{
		Name:     "SSSP",
		Kind:     KindSSSP,
		Identity: inf,
		MatOp: func(spv, vsrc float32, ctx Ctx) float32 {
			cand := vsrc + spv
			if ctx.DstVal < cand {
				return ctx.DstVal
			}
			return cand
		},
		Reduce: func(a, b float32) float32 {
			if a < b {
				return a
			}
			return b
		},
		MatOpCost:   2, // add + compare
		ReduceCost:  1,
		NeedsDstVal: true,
		Improving:   func(next, cur float32) bool { return next < cur },
		MergePrev:   true,
	}
}

// PR is Table I's PageRank row: Matrix_Op = Σ V_src/deg(src), Vector_Op
// = α + (1−α)·V_updated.
func PR() Semiring {
	return Semiring{
		Name:     "PR",
		Kind:     KindPR,
		Identity: 0,
		MatOp: func(_, vsrc float32, ctx Ctx) float32 {
			if ctx.SrcDeg == 0 {
				return 0
			}
			return vsrc / float32(ctx.SrcDeg)
		},
		Reduce: func(a, b float32) float32 { return a + b },
		VecOp: func(updated, _ float32, ctx Ctx) float32 {
			return ctx.Alpha + (1-ctx.Alpha)*updated
		},
		MatOpCost:     2, // divide (pipelined) + add
		ReduceCost:    1,
		NeedsSrcDeg:   true,
		Improving:     func(next, cur float32) bool { return next != cur },
		DenseFrontier: true,
	}
}

// PPR is personalized PageRank: the same Σ V_src/deg(src) Matrix_Op
// and (+) Reduce as PR, but the teleport mass restarts at the single
// seed vertex instead of spreading uniformly — Vector_Op = α·1{dst ==
// seed} + (1−α)·V_updated. Starting from V = e_seed, the vector stays
// the seed-personalized random-walk distribution every iteration. A
// batch of PPR runs (one seed per user) over the same graph is the
// canonical multi-source fusion workload.
func PPR() Semiring {
	return Semiring{
		Name:     "PPR",
		Kind:     KindPR,
		Identity: 0,
		MatOp: func(_, vsrc float32, ctx Ctx) float32 {
			if ctx.SrcDeg == 0 {
				return 0
			}
			return vsrc / float32(ctx.SrcDeg)
		},
		Reduce: func(a, b float32) float32 { return a + b },
		VecOp: func(updated, _ float32, ctx Ctx) float32 {
			restart := float32(0)
			if ctx.Dst == ctx.Seed {
				restart = ctx.Alpha
			}
			return restart + (1-ctx.Alpha)*updated
		},
		MatOpCost:     2, // divide (pipelined) + add
		ReduceCost:    1,
		NeedsSrcDeg:   true,
		Improving:     func(next, cur float32) bool { return next != cur },
		DenseFrontier: true,
	}
}

// CF is Table I's collaborative-filtering row with one latent factor:
// Matrix_Op = Σ (Sp_{src,dst} − V_src·V_dst)·V_src − λ·V_dst and
// Vector_Op = β·V_updated + V_dst (a gradient step with rate β).
func CF() Semiring {
	return Semiring{
		Name:     "CF",
		Kind:     KindCF,
		Identity: 0,
		MatOp: func(spv, vsrc float32, ctx Ctx) float32 {
			err := spv - vsrc*ctx.DstVal
			return err*vsrc - ctx.Lambda*ctx.DstVal
		},
		Reduce: func(a, b float32) float32 { return a + b },
		VecOp: func(updated, old float32, ctx Ctx) float32 {
			return ctx.Beta*updated + old
		},
		MatOpCost:     4, // two multiplies, subtract, fma
		ReduceCost:    1,
		NeedsDstVal:   true,
		Improving:     func(next, cur float32) bool { return next != cur },
		DenseFrontier: true,
	}
}
