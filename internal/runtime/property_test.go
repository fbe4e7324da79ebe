package runtime

import (
	"math"
	"testing"
	"testing/quick"

	"cosparse/internal/gen"
	"cosparse/internal/sim"
)

// Property: BFS levels on the simulated reconfigurable machine equal
// the serial reference for arbitrary random graphs and sources.
func TestQuickBFSLevelsMatchReference(t *testing.T) {
	f := func(seed uint64, n16 uint16, srcSel uint16) bool {
		n := 20 + int(n16%300)
		m := gen.PowerLaw(n, 5*n, 0.5, gen.Pattern, seed)
		src := int32(int(srcSel) % n)
		fw, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}})
		if err != nil {
			return false
		}
		res, _, err := lane0(fw.BFSBatch(nil, []int32{src}))
		if err != nil {
			return false
		}
		want := refBFSLevels(m, src)
		for v := range want {
			if want[v] != res.Level[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: SSSP distances never exceed BFS hop count times the
// maximum edge weight, and reachability sets agree.
func TestQuickSSSPBoundedByHops(t *testing.T) {
	f := func(seed uint64, n16 uint16) bool {
		n := 20 + int(n16%200)
		m := gen.PowerLaw(n, 4*n, 0.5, gen.UniformWeight, seed)
		fw, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}})
		if err != nil {
			return false
		}
		dist, _, err := lane0(fw.SSSPBatch(nil, []int32{0}))
		if err != nil {
			return false
		}
		bres, _, err := lane0(fw.BFSBatch(nil, []int32{0}))
		if err != nil {
			return false
		}
		var maxW float32
		for _, w := range m.Val {
			if w > maxW {
				maxW = w
			}
		}
		for v := range dist {
			reach := bres.Level[v] >= 0
			if reach != !math.IsInf(float64(dist[v]), 1) {
				return false
			}
			if reach && dist[v] > float32(bres.Level[v])*maxW+1e-4 {
				return false // a shortest path cannot beat the hop bound
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// Property: the decision tree is monotone in frontier size — once it
// switches to IP, larger frontiers never switch back to OP.
func TestQuickDecisionMonotone(t *testing.T) {
	m := gen.Uniform(50000, 400000, gen.Pattern, 90)
	for _, p := range []int{4, 8, 16, 32} {
		f, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 4, PEsPerTile: p}})
		if err != nil {
			t.Fatal(err)
		}
		sawIP := false
		for nnz := 1; nnz <= 50000; nnz = nnz*3/2 + 1 {
			d := f.Decide(nnz)
			if sawIP && !d.UseIP {
				t.Fatalf("P=%d: decision flipped back to OP at frontier %d", p, nnz)
			}
			if d.UseIP {
				sawIP = true
			}
		}
		if !sawIP {
			t.Fatalf("P=%d: never chose IP", p)
		}
	}
}
