// Package ligra re-implements the Ligra shared-memory graph framework
// (Shun & Blelloch, PPoPP 2013), the software-reconfiguration baseline
// of the CoSPARSE paper: edgeMap switches between a sparse (push) and a
// dense (pull) traversal per iteration using Ligra's |E|/20 threshold.
//
// The implementation is functionally real — BFS/SSSP/PR/CF run to
// correct answers and serve as the cross-check oracle for the CoSPARSE
// runtime — and parallel in a deterministic way (workers own disjoint
// output ranges or produce locally-ordered proposals merged in worker
// order). Execution cost on the paper's Xeon is derived from the
// operation counts the framework actually performs, through the
// analytic model in model.go; wall-clock time of this Go code is not
// used, keeping experiments machine-independent and deterministic.
package ligra

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cosparse/internal/matrix"
)

// Graph holds both edge directions, as Ligra does (it preprocesses
// in- and out-adjacency): Out lists out-neighbors per source (for
// push), In lists in-neighbors per destination (for pull).
type Graph struct {
	N   int
	Out *matrix.CSC // column j = out-edges of vertex j (dst = Row[p])
	In  *matrix.CSR // row i = in-edges of vertex i (src = Col[p])
	Deg []int32     // out-degrees
	M   int64       // number of edges
}

// NewGraph builds a Ligra graph from the transposed adjacency matrix
// (element (dst, src), the same convention the CoSPARSE runtime uses).
func NewGraph(m *matrix.COO) *Graph {
	return &Graph{
		N:   m.R,
		Out: m.ToCSC(),
		In:  m.ToCSR(),
		Deg: m.OutDegrees(),
		M:   int64(m.NNZ()),
	}
}

// Frontier is Ligra's vertexSubset: either a sparse list of vertex ids
// or a dense boolean map.
type Frontier struct {
	n     int
	dense bool
	idx   []int32 // sparse representation, sorted
	bits  []bool  // dense representation
}

// NewSparseFrontier builds a sparse frontier from sorted vertex ids.
func NewSparseFrontier(n int, idx []int32) *Frontier {
	return &Frontier{n: n, idx: idx}
}

// Size returns the number of active vertices.
func (f *Frontier) Size() int {
	if !f.dense {
		return len(f.idx)
	}
	c := 0
	for _, b := range f.bits {
		if b {
			c++
		}
	}
	return c
}

// IsEmpty reports whether no vertices are active.
func (f *Frontier) IsEmpty() bool { return f.Size() == 0 }

// Members returns the active vertex ids in ascending order.
func (f *Frontier) Members() []int32 {
	if !f.dense {
		return f.idx
	}
	var out []int32
	for i, b := range f.bits {
		if b {
			out = append(out, int32(i))
		}
	}
	return out
}

// ActiveEdges sums the out-degrees of the active vertices — the
// quantity Ligra's push/pull threshold compares against |E|/20.
func (f *Frontier) ActiveEdges(g *Graph) int64 {
	var s int64
	for _, v := range f.Members() {
		s += int64(g.Deg[v])
	}
	return s
}

// Counts tallies the work the framework performs; the Xeon model
// converts them to time and energy.
type Counts struct {
	EdgesPushed int64 // sparse (push) edge traversals: random write target
	EdgesPulled int64 // dense (pull) edge traversals: random read source
	// DependentEdges are traversals inside a Cond-filtered edgeMap
	// (BFS-style): the real implementation's pull loop checks
	// visited[] and breaks on the first hit, making its loads
	// dependent — far lower memory-level parallelism than a streaming
	// accumulate.
	DependentEdges int64
	// EdgesScanned counts every in-edge examined by a dense (pull)
	// step, active or not: the edge-list read itself is sequential
	// traffic the machine pays regardless of how many sources turn out
	// to be active.
	EdgesScanned int64
	VertexScans  int64 // dense frontier scans and frontier construction
	Ops          int64 // arithmetic operations in update functions
	Iterations   int64 // parallel-for barriers
	DenseSteps   int64
	SparseSteps  int64
}

// Add accumulates other into c.
func (c *Counts) Add(o Counts) {
	c.EdgesPushed += o.EdgesPushed
	c.EdgesPulled += o.EdgesPulled
	c.DependentEdges += o.DependentEdges
	c.EdgesScanned += o.EdgesScanned
	c.VertexScans += o.VertexScans
	c.Ops += o.Ops
	c.Iterations += o.Iterations
	c.DenseSteps += o.DenseSteps
	c.SparseSteps += o.SparseSteps
}

// EdgeMapArgs bundles the operators of Ligra's edgeMap.
type EdgeMapArgs struct {
	// Update processes edge s→d with weight w and returns the proposed
	// new value for d, or keep=false to propose nothing.
	Update func(s, d int32, w float32) (val float32, keep bool)
	// Better reports whether a beats b when multiple sources propose to
	// the same destination (min for BFS/SSSP, sum handled via Combine).
	Better func(a, b float32) bool
	// Apply commits a winning proposal to d given its current value;
	// returns the new value and whether d changed (joins the output
	// frontier).
	Apply func(d int32, proposal, current float32) (float32, bool)
	// Cond filters destinations (Ligra's C function): return false to
	// skip (e.g. BFS skips visited vertices). Nil = always true.
	Cond func(d int32) bool
	// OpsPerEdge is charged to the Xeon model per traversed edge.
	OpsPerEdge int64
}

// Threshold is Ligra's push/pull switch: dense when the frontier's
// active edge count exceeds |E|/Threshold. The paper quotes |E|/20.
const Threshold = 20

// nworkers caps host parallelism (determinism is preserved regardless).
func nworkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	if w > 32 {
		w = 32
	}
	return w
}

// EdgeMap runs one Ligra edgeMap step over vals, choosing push or pull
// by the |E|/20 rule, and returns the output frontier plus the work
// counts. vals is updated in place.
func EdgeMap(g *Graph, f *Frontier, vals []float32, args EdgeMapArgs) (*Frontier, Counts) {
	if args.Update == nil || args.Apply == nil {
		panic("ligra: EdgeMap requires Update and Apply")
	}
	activeEdges := f.ActiveEdges(g)
	var c Counts
	c.Iterations = 1
	if activeEdges+int64(f.Size()) > g.M/Threshold {
		c.DenseSteps = 1
		out := edgeMapDense(g, f, vals, args, &c)
		return out, c
	}
	c.SparseSteps = 1
	out := edgeMapSparse(g, f, vals, args, &c)
	return out, c
}

// edgeMapDense is the pull direction: every (eligible) destination
// scans its in-neighbors for active sources. Workers own disjoint
// destination ranges, and the step is Jacobi: an Update may read any
// vertex's value (SSSP reads vals[s]), so winners go to a second buffer
// and reach vals only after every worker has finished — values and
// counts are then a function of the input alone, not of how many
// workers ran or how they interleaved.
func edgeMapDense(g *Graph, f *Frontier, vals []float32, args EdgeMapArgs, c *Counts) *Frontier {
	active := f.bits
	if !f.dense {
		active = make([]bool, g.N)
		for _, v := range f.idx {
			active[v] = true
		}
	}
	c.VertexScans += int64(g.N) // frontier bitmap scan

	outBits := make([]bool, g.N)
	next := make([]float32, g.N) // meaningful where outBits is set
	w := nworkers()
	var wg sync.WaitGroup
	edgeCounts := make([]int64, w)
	scanCounts := make([]int64, w)
	opCounts := make([]int64, w)
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			lo, hi := g.N*wk/w, g.N*(wk+1)/w
			for d := lo; d < hi; d++ {
				if args.Cond != nil && !args.Cond(int32(d)) {
					continue
				}
				cur := vals[d]
				var best float32
				have := false
				scanCounts[wk] += int64(g.In.RowPtr[d+1] - g.In.RowPtr[d])
				for p := g.In.RowPtr[d]; p < g.In.RowPtr[d+1]; p++ {
					s := g.In.Col[p]
					if !active[s] {
						continue
					}
					edgeCounts[wk]++
					opCounts[wk] += args.OpsPerEdge
					v, keep := args.Update(s, int32(d), g.In.Val[p])
					if !keep {
						continue
					}
					if !have || args.Better(v, best) {
						best = v
						have = true
					}
				}
				if have {
					nv, changed := args.Apply(int32(d), best, cur)
					if changed {
						next[d] = nv
						outBits[d] = true
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	for d, changed := range outBits {
		if changed {
			vals[d] = next[d]
		}
	}
	for wk := 0; wk < w; wk++ {
		c.EdgesPulled += edgeCounts[wk]
		c.EdgesScanned += scanCounts[wk]
		c.Ops += opCounts[wk]
		if args.Cond != nil {
			c.DependentEdges += edgeCounts[wk]
		}
	}
	return &Frontier{n: g.N, dense: true, bits: outBits}
}

// edgeMapSparse is the push direction: active sources propose along
// their out-edges. Workers produce local proposal lists over disjoint
// frontier chunks; the merge resolves conflicts with Better, giving a
// deterministic result equivalent to Ligra's CAS loop.
func edgeMapSparse(g *Graph, f *Frontier, vals []float32, args EdgeMapArgs, c *Counts) *Frontier {
	members := f.Members()
	type proposal struct {
		d int32
		v float32
	}
	w := nworkers()
	local := make([][]proposal, w)
	edgeCounts := make([]int64, w)
	opCounts := make([]int64, w)
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			lo, hi := len(members)*wk/w, len(members)*(wk+1)/w
			for _, s := range members[lo:hi] {
				for p := g.Out.ColPtr[s]; p < g.Out.ColPtr[s+1]; p++ {
					d := g.Out.Row[p]
					if args.Cond != nil && !args.Cond(d) {
						continue
					}
					edgeCounts[wk]++
					opCounts[wk] += args.OpsPerEdge
					v, keep := args.Update(s, d, g.Out.Val[p])
					if keep {
						local[wk] = append(local[wk], proposal{d, v})
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	best := make(map[int32]float32)
	for wk := 0; wk < w; wk++ {
		c.EdgesPushed += edgeCounts[wk]
		c.Ops += opCounts[wk]
		if args.Cond != nil {
			c.DependentEdges += edgeCounts[wk]
		}
		for _, pr := range local[wk] {
			if b, ok := best[pr.d]; !ok || args.Better(pr.v, b) {
				best[pr.d] = pr.v
			}
		}
	}
	var idx []int32
	for d, v := range best {
		nv, changed := args.Apply(d, v, vals[d])
		if changed {
			vals[d] = nv
			idx = append(idx, d)
		}
	}
	sortInt32(idx)
	c.VertexScans += int64(len(members) + len(idx))
	return &Frontier{n: g.N, idx: idx}
}

func sortInt32(a []int32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// String describes a frontier for debugging.
func (f *Frontier) String() string {
	kind := "sparse"
	if f.dense {
		kind = "dense"
	}
	return fmt.Sprintf("frontier{%s, %d/%d}", kind, f.Size(), f.n)
}
