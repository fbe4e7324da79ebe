package runtime

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// refBC is serial Brandes for one source on the unweighted graph.
func refBC(m *matrix.COO, src int32) []float64 {
	n := m.R
	csc := m.ToCSC() // out-edges: column v lists successors
	// BFS with order, sigma, predecessors.
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma := make([]float64, n)
	preds := make([][]int32, n)
	order := []int32{}
	dist[src] = 0
	sigma[src] = 1
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for p := csc.ColPtr[v]; p < csc.ColPtr[v+1]; p++ {
			d := csc.Row[p]
			if dist[d] < 0 {
				dist[d] = dist[v] + 1
				queue = append(queue, d)
			}
			if dist[d] == dist[v]+1 {
				sigma[d] += sigma[v]
				preds[d] = append(preds[d], v)
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		for _, v := range preds[w] {
			delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
		}
	}
	delta[src] = 0
	return delta
}

// BC against serial Brandes on both backends, under a trace cap smaller
// than the run: the stitched report must read like any other run's —
// the backend named, cost in that backend's unit, every pass counted,
// the trace one renumbered run bounded by the cap.
func TestBCMatchesBrandes(t *testing.T) {
	const traceCap = 4
	for _, be := range []exec.Backend{exec.Sim(), exec.Native()} {
		for _, seed := range []uint64{201, 202, 203} {
			m := gen.PowerLaw(250, 2200, 0.5, gen.Pattern, seed)
			f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}, Backend: be, traceCap: traceCap})
			got, rep, err := f.BC(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			want := refBC(m, 0)
			for v := range want {
				g := float64(got[v])
				if math.Abs(g-want[v]) > 1e-2*math.Max(want[v], 1) {
					t.Fatalf("%s seed %d vertex %d: BC %g, want %g", be.Name(), seed, v, g, want[v])
				}
			}
			if rep.Backend != be.Name() {
				t.Errorf("%s: report names backend %q", be.Name(), rep.Backend)
			}
			if be.Simulated() && rep.TotalCycles <= 0 {
				t.Errorf("%s: BC charged no cycles", be.Name())
			}
			if !be.Simulated() && rep.TotalWall <= 0 {
				t.Errorf("%s: BC reports no wall time", be.Name())
			}
			// A BFS of at least two levels, then one pass per level in
			// each sweep.
			if rep.TotalIters <= traceCap {
				t.Fatalf("%s: BC counted %d SpMV passes, test wants more than the cap %d", be.Name(), rep.TotalIters, traceCap)
			}
			if len(rep.Iters) != traceCap || rep.DroppedIters != rep.TotalIters-traceCap {
				t.Errorf("%s: %d passes under cap %d: trace holds %d, %d dropped",
					be.Name(), rep.TotalIters, traceCap, len(rep.Iters), rep.DroppedIters)
			}
			for i, it := range rep.Iters {
				if want := rep.TotalIters - len(rep.Iters) + i; it.Iter != want {
					t.Errorf("%s: trace[%d] is numbered %d, want %d", be.Name(), i, it.Iter, want)
				}
			}
		}
	}
}

func TestBCTinyHandGraph(t *testing.T) {
	// Diamond: 0->1, 0->2, 1->3, 2->3. Two shortest paths to 3; each of
	// 1,2 carries half: BC[1]=BC[2]=0.5·(1+0)+... exactly 1.5? Brandes:
	// delta[1] = sigma1/sigma3·(1+delta3) = 1/2·1 = 0.5; plus via direct
	// edges? vertex 1 is on paths 0->1 (endpoint, not counted) and
	// 0->1->3: delta[1] = 0.5. Same for 2.
	m := matrix.MustCOO(4, 4, []matrix.Coord{
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 0, Val: 1},
		{Row: 3, Col: 1, Val: 1}, {Row: 3, Col: 2, Val: 1},
	})
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 1, PEsPerTile: 2}})
	bc, _, err := f.BC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{0, 0.5, 0.5, 0}
	for v := range want {
		d := bc[v] - want[v]
		if d > 1e-5 || d < -1e-5 {
			t.Fatalf("BC = %v, want %v", bc, want)
		}
	}
}

func TestBCInvalidSource(t *testing.T) {
	m := gen.Uniform(20, 60, gen.Pattern, 204)
	f := newFW(t, m, Options{})
	if _, _, err := f.BC(context.Background(), -1); err == nil {
		t.Error("accepted negative source")
	}
	if _, _, err := f.BC(context.Background(), 20); err == nil {
		t.Error("accepted out-of-range source")
	}
}

func TestBCUnreachableVerticesZero(t *testing.T) {
	// Two components: BC from component A never touches B.
	m := matrix.MustCOO(6, 6, []matrix.Coord{
		{Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1},
		{Row: 4, Col: 3, Val: 1}, {Row: 5, Col: 4, Val: 1},
	})
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 1, PEsPerTile: 2}})
	bc, _, err := f.BC(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{3, 4, 5} {
		if bc[v] != 0 {
			t.Fatalf("unreachable vertex %d has BC %g", v, bc[v])
		}
	}
	if bc[1] != 1 { // 0->1->2: vertex 1 sits on one shortest path
		t.Fatalf("BC[1] = %g, want 1", bc[1])
	}
}

// TestBCValuesDigestPinned pins BC's values bit for bit, on both
// backends, over TestBCMatchesBrandes' graphs and the checkpoint tests'
// graph. The digest was recorded while BC still ran a BFS plus one
// sub-run per level and sweep; the two-lane run must reproduce it.
func TestBCValuesDigestPinned(t *testing.T) {
	const want = "9d34865bb11c2ef1132f1e42a033569537a0d84c5603a8c0ed85359124424e57"
	h := sha256.New()
	digest := func(f *Framework) {
		got, _, err := f.BC(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range got {
			binary.Write(h, binary.LittleEndian, math.Float32bits(v))
		}
	}
	for _, be := range []exec.Backend{exec.Sim(), exec.Native()} {
		for _, seed := range []uint64{201, 202, 203} {
			m := gen.PowerLaw(250, 2200, 0.5, gen.Pattern, seed)
			digest(newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}, Backend: be}))
		}
		digest(ckptFW(t, be))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("BC values digest %s, want %s", got, want)
	}
}
