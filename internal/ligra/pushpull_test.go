package ligra

import (
	"math"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
)

// star builds a hub-and-spokes graph: vertex 0 connects to all others
// (both directions), so one step from the hub activates everything.
func star(n int) *matrix.COO {
	var elems []matrix.Coord
	for v := int32(1); v < int32(n); v++ {
		elems = append(elems, matrix.Coord{Row: v, Col: 0, Val: 1})
		elems = append(elems, matrix.Coord{Row: 0, Col: v, Val: 1})
	}
	return matrix.MustCOO(n, n, elems)
}

func TestEdgeMapChoosesPushForTinyFrontier(t *testing.T) {
	g := NewGraph(gen.Uniform(500, 10000, gen.Pattern, 70))
	vals := make([]float32, g.N)
	// One low-degree vertex active: active edges ≪ |E|/20.
	v := int32(0)
	for i := int32(0); int(i) < g.N; i++ {
		if g.Deg[i] > 0 && g.Deg[i] < 5 {
			v = i
			break
		}
	}
	f := NewSparseFrontier(g.N, []int32{v})
	_, c := EdgeMap(g, f, vals, EdgeMapArgs{
		Update: func(s, d int32, w float32) (float32, bool) { return 1, true },
		Better: func(a, b float32) bool { return a < b },
		Apply:  func(d int32, p, cur float32) (float32, bool) { return p, true },
	})
	if c.SparseSteps != 1 || c.DenseSteps != 0 {
		t.Fatalf("tiny frontier used dense step: %+v", c)
	}
	if c.EdgesPushed == 0 || c.EdgesPulled != 0 {
		t.Fatalf("push accounting wrong: %+v", c)
	}
}

func TestEdgeMapChoosesPullForHubFrontier(t *testing.T) {
	g := NewGraph(star(200))
	vals := make([]float32, g.N)
	// The hub's degree (199) is > |E|/20 (398/20 ≈ 19).
	f := NewSparseFrontier(g.N, []int32{0})
	_, c := EdgeMap(g, f, vals, EdgeMapArgs{
		Update: func(s, d int32, w float32) (float32, bool) { return 1, true },
		Better: func(a, b float32) bool { return a < b },
		Apply:  func(d int32, p, cur float32) (float32, bool) { return p, true },
	})
	if c.DenseSteps != 1 || c.SparseSteps != 0 {
		t.Fatalf("hub frontier used sparse step: %+v", c)
	}
	if c.EdgesPulled == 0 || c.EdgesPushed != 0 {
		t.Fatalf("pull accounting wrong: %+v", c)
	}
}

func TestPushAndPullGiveSameResult(t *testing.T) {
	// Force both directions over the same relaxation step and compare.
	m := gen.PowerLaw(300, 4000, 0.5, gen.UniformWeight, 71)
	g := NewGraph(m)
	inf := float32(math.Inf(1))

	run := func(dense bool) []float32 {
		vals := make([]float32, g.N)
		for i := range vals {
			vals[i] = inf
		}
		vals[0] = 0
		args := EdgeMapArgs{
			Update: func(s, d int32, w float32) (float32, bool) {
				nd := vals[s] + w
				return nd, nd < vals[d]
			},
			Better: func(a, b float32) bool { return a < b },
			Apply: func(d int32, p, cur float32) (float32, bool) {
				if p < cur {
					return p, true
				}
				return cur, false
			},
			OpsPerEdge: 3,
		}
		f := NewSparseFrontier(g.N, []int32{0})
		var c Counts
		if dense {
			edgeMapDense(g, f, vals, args, &c)
		} else {
			edgeMapSparse(g, f, vals, args, &c)
		}
		return vals
	}
	push := run(false)
	pull := run(true)
	for v := range push {
		if push[v] != pull[v] {
			t.Fatalf("vertex %d: push %g vs pull %g", v, push[v], pull[v])
		}
	}
}

func TestBFSLevelsViaFrontierCount(t *testing.T) {
	// On a star graph BFS from the hub settles in one productive round
	// plus one empty round; from a leaf, two plus one.
	g := NewGraph(star(50))
	hub, err := BFS(g, 0, DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	if hub.Iters != 2 {
		t.Fatalf("hub BFS took %d rounds, want 2", hub.Iters)
	}
	leaf, err := BFS(g, 7, DefaultXeon())
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Iters != 3 {
		t.Fatalf("leaf BFS took %d rounds, want 3", leaf.Iters)
	}
}
