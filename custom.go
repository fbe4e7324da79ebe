package cosparse

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// Operators defines a custom graph algorithm as a row of the paper's
// Table I: a Matrix_Op applied to every (edge, active source) pair, a
// Reduce combining contributions to the same destination, and an
// optional Vector_Op post-processing updated destinations. The engine
// runs it through the full reconfigurable iteration loop — the paper's
// promise that "end users only need to define the key computations to
// realize a graph algorithm" (§III-D).
//
// Example — widest path (maximize the minimum edge weight):
//
//	ops := cosparse.Operators{
//	    Name:     "widest",
//	    Identity: 0,
//	    MatrixOp: func(e cosparse.EdgeCtx) float32 { return min32(e.SrcVal, e.Weight) },
//	    Reduce:   func(a, b float32) float32 { return max32(a, b) },
//	    Improving: func(next, cur float32) bool { return next > cur },
//	}
type Operators struct {
	// Name labels reports; defaults to "custom".
	Name string

	// Identity is the value of an untouched destination and the dense
	// fill value of the frontier (0 for sums, +Inf for minima, -Inf or
	// 0 for maxima).
	Identity float32

	// MatrixOp computes one edge's contribution. Required.
	MatrixOp func(e EdgeCtx) float32

	// Reduce combines two contributions to one destination. It must be
	// commutative and associative. Required.
	Reduce func(a, b float32) float32

	// VectorOp post-processes an updated destination (nil = none).
	VectorOp func(updated, old float32) float32

	// Improving decides whether a merged value activates the
	// destination for the next iteration. Required for sparse-frontier
	// algorithms.
	Improving func(next, cur float32) bool

	// OnceOnly freezes a destination after its first update (BFS-like).
	OnceOnly bool

	// DenseFrontier keeps every vertex active every iteration
	// (PR-like); the run then executes exactly MaxIters iterations.
	DenseFrontier bool

	// UsesDstValue declares that MatrixOp reads e.DstVal; the simulator
	// then charges the extra destination load per element.
	UsesDstValue bool

	// UsesSrcDegree declares that MatrixOp reads e.SrcDeg.
	UsesSrcDegree bool

	// MatrixOpCost and ReduceCost are the PE cycles charged per
	// application (default 2 and 1).
	MatrixOpCost, ReduceCost int
}

// EdgeCtx is the per-edge context handed to a custom MatrixOp.
type EdgeCtx struct {
	Weight float32 // stored edge value
	SrcVal float32 // frontier value of the source
	Src    int32   // source vertex id
	DstVal float32 // destination's previous value (if UsesDstValue)
	SrcDeg int32   // source out-degree (if UsesSrcDegree)
}

// RunContext executes the custom algorithm under ctx, like the other
// Context entry points (engine_context.go). initial is the per-vertex
// starting state (length NumVertices); frontier lists the initially
// active vertices (their values are read from initial; ignored when
// DenseFrontier). maxIters bounds the loop (0 = a |V|-proportional
// safety bound; DenseFrontier algorithms should set it explicitly).
func (e *Engine) RunContext(ctx context.Context, ops Operators, initial []float32, frontier []int32, maxIters int) ([]float32, *Report, error) {
	if ops.MatrixOp == nil || ops.Reduce == nil {
		return nil, nil, fmt.Errorf("cosparse: Operators require MatrixOp and Reduce")
	}
	if ops.Improving == nil && !ops.DenseFrontier {
		return nil, nil, fmt.Errorf("cosparse: sparse-frontier Operators require Improving")
	}
	if len(initial) != e.fw.N() {
		return nil, nil, fmt.Errorf("cosparse: initial values length %d, graph has %d vertices", len(initial), e.fw.N())
	}

	ring := semiring.Semiring{
		Name:     ops.Name,
		Identity: ops.Identity,
		MatOp: func(spv, vsrc float32, ctx semiring.Ctx) float32 {
			return ops.MatrixOp(EdgeCtx{
				Weight: spv, SrcVal: vsrc, Src: ctx.Src,
				DstVal: ctx.DstVal, SrcDeg: ctx.SrcDeg,
			})
		},
		Reduce:        ops.Reduce,
		Improving:     ops.Improving,
		OnceOnly:      ops.OnceOnly,
		DenseFrontier: ops.DenseFrontier,
		NeedsDstVal:   ops.UsesDstValue,
		NeedsSrcDeg:   ops.UsesSrcDegree,
		MatOpCost:     ops.MatrixOpCost,
		ReduceCost:    ops.ReduceCost,
		// Frontier-propagation algorithms keep and improve old state;
		// dense algorithms replace it (or fold it in via VectorOp).
		MergePrev: !ops.DenseFrontier,
	}
	if ring.MatOpCost <= 0 {
		ring.MatOpCost = 2
	}
	if ring.ReduceCost <= 0 {
		ring.ReduceCost = 1
	}
	if ops.VectorOp != nil {
		ring.VecOp = func(updated, old float32, _ semiring.Ctx) float32 {
			return ops.VectorOp(updated, old)
		}
	}
	if ring.Improving == nil {
		ring.Improving = func(next, cur float32) bool { return next != cur }
	}
	if ring.Name == "" {
		ring.Name = "custom"
	}

	var sv *matrix.SparseVec
	if !ops.DenseFrontier {
		idx := make([]int32, len(frontier))
		copy(idx, frontier)
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float32, len(idx))
		for k, v := range idx {
			if v < 0 || int(v) >= len(initial) {
				return nil, nil, fmt.Errorf("cosparse: frontier vertex %d out of range", v)
			}
			val[k] = initial[v]
		}
		var err error
		sv, err = matrix.NewSparseVec(len(initial), idx, val)
		if err != nil {
			return nil, nil, err
		}
	}

	vals, rep, err := e.fw.RunCustom(ctx, ring, semiring.Ctx{}, initial, sv, maxIters) // RunCustom copies initial
	return vals, e.report(rep), err
}

// ConnectedComponentsContext labels each vertex with the smallest
// vertex id reachable from it along undirected paths (call on a
// symmetrized graph), implemented as min-label propagation through the
// custom operator path — a worked example of RunContext.
func (e *Engine) ConnectedComponentsContext(ctx context.Context) ([]int32, *Report, error) {
	n := e.fw.N()
	initial := make([]float32, n)
	frontier := make([]int32, n)
	for i := 0; i < n; i++ {
		initial[i] = float32(i)
		frontier[i] = int32(i)
	}
	ops := Operators{
		Name:     "CC",
		Identity: float32(math.Inf(1)),
		MatrixOp: func(e EdgeCtx) float32 { return e.SrcVal },
		Reduce: func(a, b float32) float32 {
			if a < b {
				return a
			}
			return b
		},
		Improving: func(next, cur float32) bool { return next < cur },
	}
	vals, rep, err := e.RunContext(ctx, ops, initial, frontier, 0)
	if err != nil {
		return nil, rep, err
	}
	labels := make([]int32, n)
	for i, v := range vals {
		labels[i] = int32(v)
	}
	return labels, rep, nil
}
