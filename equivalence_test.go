package cosparse

// Cross-framework equivalence: the CoSPARSE engine (simulated
// reconfigurable hardware) and the Ligra re-implementation (host
// execution with a Xeon model) run the same algorithms on the same
// graphs; their *values* must agree. This is the strongest end-to-end
// correctness check in the repository: two independent implementations
// of frontier semantics, semirings and convergence, compared exactly.

import (
	"math"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/ligra"
	"cosparse/internal/matrix"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

func equivSetup(t *testing.T, seed uint64, mode gen.ValueMode) (*matrix.COO, *runtime.Framework, *ligra.Graph) {
	t.Helper()
	m := gen.PowerLaw(800, 12000, 0.55, mode, seed)
	fw, err := runtime.NewFromStore(m, runtime.Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	if err != nil {
		t.Fatal(err)
	}
	return m, fw, ligra.NewGraph(m)
}

func TestBFSAgreesWithLigra(t *testing.T) {
	_, fw, lg := equivSetup(t, 101, gen.Pattern)
	res, _, err := lane0(fw.BFSBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ligra.BFS(lg, 0, ligra.DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Parent {
		coReached := res.Parent[v] >= 0
		liReached := !math.IsInf(float64(lres.Values[v]), 1)
		if coReached != liReached {
			t.Fatalf("vertex %d: reachability disagrees (cosparse %v, ligra %v)", v, coReached, liReached)
		}
		if coReached && v != 0 && res.Parent[v] != int32(lres.Values[v]) {
			t.Fatalf("vertex %d: parent %d vs ligra %g (both should be the min-label parent)",
				v, res.Parent[v], lres.Values[v])
		}
	}
}

func TestSSSPAgreesWithLigra(t *testing.T) {
	_, fw, lg := equivSetup(t, 102, gen.UniformWeight)
	dist, _, err := lane0(fw.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ligra.SSSP(lg, 0, ligra.DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	for v := range dist {
		a, b := float64(dist[v]), float64(lres.Values[v])
		if math.IsInf(a, 1) != math.IsInf(b, 1) {
			t.Fatalf("vertex %d: reachability disagrees", v)
		}
		if !math.IsInf(a, 1) && math.Abs(a-b) > 1e-3 {
			t.Fatalf("vertex %d: distance %g vs ligra %g", v, a, b)
		}
	}
}

func TestPageRankAgreesWithLigra(t *testing.T) {
	_, fw, lg := equivSetup(t, 103, gen.Pattern)
	pr, _, err := lane0(fw.PageRankBatch(nil, 1, 12, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ligra.PageRank(lg, 12, 0.15, ligra.DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	for v := range pr {
		a, b := float64(pr[v]), float64(lres.Values[v])
		if math.Abs(a-b) > 1e-3*math.Max(math.Abs(b), 0.01) {
			t.Fatalf("vertex %d: pagerank %g vs ligra %g", v, a, b)
		}
	}
}

func TestCFAgreesWithLigra(t *testing.T) {
	_, fw, lg := equivSetup(t, 104, gen.UniformWeight)
	v, _, err := lane0(fw.CFBatch(nil, 1, 8, 0.05, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	lres, err := ligra.CF(lg, 8, 0.05, 0.01, ligra.DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		a, b := float64(v[i]), float64(lres.Values[i])
		if math.Abs(a-b) > 1e-2*math.Max(math.Abs(b), 0.1) {
			t.Fatalf("vertex %d: factor %g vs ligra %g", i, a, b)
		}
	}
}

// The frontier evolution itself must agree: per-iteration frontier
// sizes of CoSPARSE's SSSP match a functional frontier-based
// Bellman-Ford replay.
func TestFrontierEvolutionMatchesReplay(t *testing.T) {
	m, fw, _ := equivSetup(t, 105, gen.UniformWeight)
	_, rep, err := lane0(fw.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}

	// Functional replay in float32, matching the kernels' arithmetic
	// exactly so rounding cannot perturb the frontier evolution.
	csc := m.ToCSC()
	n := m.R
	inf := float32(math.Inf(1))
	dist := make([]float32, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[0] = 0
	frontier := []int32{0}
	var sizes []int
	for len(frontier) > 0 {
		sizes = append(sizes, len(frontier))
		best := map[int32]float32{}
		for _, s := range frontier {
			for p := csc.ColPtr[s]; p < csc.ColPtr[s+1]; p++ {
				d := csc.Row[p]
				cand := dist[s] + csc.Val[p]
				if cur, ok := best[d]; !ok || cand < cur {
					best[d] = cand
				}
			}
		}
		var next []int32
		for d, cand := range best {
			if cand < dist[d] {
				dist[d] = cand
				next = append(next, d)
			}
		}
		frontier = next
	}

	if len(rep.Iters) != len(sizes) {
		t.Fatalf("iteration counts differ: %d vs replay %d", len(rep.Iters), len(sizes))
	}
	for i, it := range rep.Iters {
		if it.FrontierNNZ != sizes[i] {
			t.Fatalf("iteration %d: frontier %d vs replay %d", i, it.FrontierNNZ, sizes[i])
		}
	}
}
