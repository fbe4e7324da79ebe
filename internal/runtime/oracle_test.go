package runtime

import (
	"fmt"
	"math"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// oracleBFS is a plain queue BFS over the edges src→dst stored as
// (row dst, col src): levels, and as parent the smallest vertex of the
// previous level with an edge into the vertex — the label the BFS ring's
// min picks.
func oracleBFS(m *matrix.COO, src int32) (level, parent []int32) {
	out := make([][]int32, m.C)
	for k := range m.Val {
		out[m.Col[k]] = append(out[m.Col[k]], m.Row[k])
	}
	level, parent = make([]int32, m.R), make([]int32, m.R)
	for v := range level {
		level[v], parent[v] = -1, -1
	}
	level[src], parent[src] = 0, src
	for queue := []int32{src}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for _, v := range out[u] {
			if level[v] < 0 {
				level[v] = level[u] + 1
				queue = append(queue, v)
			}
			if level[v] == level[u]+1 && (parent[v] < 0 || u < parent[v]) {
				parent[v] = u
			}
		}
	}
	return level, parent
}

// oracleSSSP is float32 Bellman–Ford relaxed to its fixed point, which
// any fair relaxation order reaches when no negative cycle exists.
func oracleSSSP(m *matrix.COO, src int32) []float32 {
	dist := make([]float32, m.R)
	for v := range dist {
		dist[v] = float32(math.Inf(1))
	}
	dist[src] = 0
	for changed := true; changed; {
		changed = false
		for k, w := range m.Val {
			if d := dist[m.Col[k]] + w; d < dist[m.Row[k]] {
				dist[m.Row[k]], changed = d, true
			}
		}
	}
	return dist
}

// reweighted returns m with every 53rd value replaced by w.
func reweighted(m *matrix.COO, w float32) *matrix.COO {
	c := &matrix.COO{R: m.R, C: m.C, Row: m.Row, Col: m.Col, Val: append([]float32(nil), m.Val...)}
	for k := 0; k < len(c.Val); k += 53 {
		c.Val[k] = w
	}
	return c
}

// acyclic keeps m's edges from a lower to a higher vertex id, so
// negative weights make no negative cycle.
func acyclic(m *matrix.COO) *matrix.COO {
	var elems []matrix.Coord
	for k := range m.Val {
		if m.Col[k] < m.Row[k] {
			elems = append(elems, matrix.Coord{Row: m.Row[k], Col: m.Col[k], Val: m.Val[k]})
		}
	}
	return matrix.MustCOO(m.R, m.C, elems)
}

// TestTraversalOracleNative checks native BFS levels and parents and
// SSSP distances against the plain loops above over every combination
// of {auto, forced IP, forced OP} × {2×8, 16×16} × {source 0,
// max-degree source} × {csr, dvcsr}, on two Table III stand-ins and on
// graphs carrying zero weights (the min-ring kernels run) and −0,
// negative and +Inf weights (SSSP takes the generic passes).
func TestTraversalOracleNative(t *testing.T) {
	suite := func(name string) *matrix.COO {
		spec, err := gen.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Build(spec.ScaleForBudget(16000), gen.UniformWeight, 3)
	}
	social, random := suite("pokec"), suite("vsp")
	graphs := []struct {
		name string
		m    *matrix.COO
		fast bool // SSSP runs the native min-ring kernels
	}{
		{"pokec", social, true},
		{"vsp", random, true},
		{"pokec+zero", reweighted(social, 0), true},
		{"pokec+negzero", reweighted(social, float32(math.Copysign(0, -1))), false},
		{"pokec-dag+negative", reweighted(acyclic(social), -0.25), false},
		{"pokec+inf", reweighted(social, float32(math.Inf(1))), false},
	}
	sw := []struct {
		name   string
		choice SWChoice
	}{{"auto", AutoSW}, {"ip", ForceIP}, {"op", ForceOP}}
	ssspRing := semiring.SSSP()
	for _, g := range graphs {
		deg, maxDeg := g.m.OutDegrees(), int32(0)
		for v, d := range deg {
			if d > deg[maxDeg] {
				maxDeg = int32(v)
			}
		}
		dv, err := matrix.EncodeDVCSR(g.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []int32{0, maxDeg} {
			level, parent := oracleBFS(g.m, src)
			dist := oracleSSSP(g.m, src)
			for _, geom := range []sim.Geometry{{Tiles: 2, PEsPerTile: 8}, {Tiles: 16, PEsPerTile: 16}} {
				for _, store := range []matrix.Store{g.m, dv} {
					for _, s := range sw {
						what := fmt.Sprintf("%s src %d %dx%d %s %s", g.name, src, geom.Tiles, geom.PEsPerTile, store.Format(), s.name)
						f, err := NewFromStore(store, Options{Geometry: geom, Backend: exec.Native(), SW: s.choice})
						if err != nil {
							t.Fatal(err)
						}
						if got := f.opPart.MinRingFast(&ssspRing); got != g.fast {
							t.Fatalf("%s: SSSP on the min-ring kernels = %v, want %v", what, got, g.fast)
						}
						res, _, err := f.BFS(src)
						if err != nil {
							t.Fatal(err)
						}
						for v := range level {
							if res.Level[v] != level[v] || res.Parent[v] != parent[v] {
								t.Fatalf("%s: BFS vertex %d: level %d parent %d, want %d and %d",
									what, v, res.Level[v], res.Parent[v], level[v], parent[v])
							}
						}
						got, _, err := f.SSSP(src)
						if err != nil {
							t.Fatal(err)
						}
						for v := range dist {
							if math.Float32bits(got[v]) != math.Float32bits(dist[v]) {
								t.Fatalf("%s: SSSP vertex %d: %g, want %g", what, v, got[v], dist[v])
							}
						}
					}
				}
			}
		}
	}
}
