package runtime

import (
	"context"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// Per-iteration accounting: the runtime must charge kernel, merge and
// conversion phases separately, sum them into the iteration total, and
// charge reconfiguration cycles exactly at configuration changes.
func TestIterationAccountingComposes(t *testing.T) {
	m := gen.PowerLaw(1200, 24000, 0.55, gen.UniformWeight, 80)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	prev := Decision{}
	for i, it := range rep.Iters {
		sum := it.ConvCycles + it.KernelCycles + it.MergeCycles
		if it.Reconfig {
			sum += f.opts.Params.ReconfigCycles
		}
		if it.TotalCycles != sum {
			t.Fatalf("iteration %d: total %d != conv %d + kernel %d + merge %d (+reconfig)",
				i, it.TotalCycles, it.ConvCycles, it.KernelCycles, it.MergeCycles)
		}
		if it.KernelCycles <= 0 || it.MergeCycles <= 0 {
			t.Fatalf("iteration %d: phase missing: %+v", i, it)
		}
		if i > 0 && it.Reconfig != (it.Decision != prev) {
			t.Fatalf("iteration %d: reconfig flag inconsistent with decision change", i)
		}
		prev = it.Decision
		total += it.TotalCycles
	}
	if rep.TotalCycles != total {
		t.Fatalf("report total %d != sum of iterations %d", rep.TotalCycles, total)
	}
	if rep.AvgPowerW() <= 0 || rep.AvgPowerW() > 20 {
		t.Fatalf("implausible average power %g W", rep.AvgPowerW())
	}
}

// IP iterations must charge frontier conversion (the §III-D2 vector
// format conversion); OP iterations must not (they consume the sparse
// frontier directly).
func TestConversionChargedOnlyForIP(t *testing.T) {
	m := gen.PowerLaw(1500, 30000, 0.55, gen.UniformWeight, 81)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	sawIP := false
	for i, it := range rep.Iters {
		if it.Decision.UseIP {
			sawIP = true
			if it.ConvCycles <= 0 {
				t.Fatalf("IP iteration %d charged no conversion", i)
			}
		} else if it.ConvCycles != 0 {
			t.Fatalf("OP iteration %d charged conversion %d", i, it.ConvCycles)
		}
	}
	if !sawIP {
		t.Skip("frontier never densified on this input")
	}
}

// PR must charge no conversion at all: its frontier is the value vector.
func TestPRChargesNoConversion(t *testing.T) {
	m := gen.Uniform(600, 6000, gen.Pattern, 82)
	f := newFW(t, m, Options{})
	_, rep, err := lane0(f.PageRankBatch(nil, 1, 4, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range rep.Iters {
		if it.ConvCycles != 0 {
			t.Fatalf("PR iteration %d charged conversion", i)
		}
	}
}

// RunCustom validation and accounting.
func TestRunCustomValidation(t *testing.T) {
	m := gen.Uniform(100, 1000, gen.Pattern, 83)
	f := newFW(t, m, Options{})
	ring := semiring.SpMV()
	vals := make(matrix.Dense, 100)

	if _, _, err := f.RunCustom(context.Background(), ring, semiring.Ctx{}, vals[:5], nil, 1); err == nil {
		t.Error("accepted short values")
	}
	if _, _, err := f.RunCustom(context.Background(), semiring.Semiring{}, semiring.Ctx{}, vals, nil, 1); err == nil {
		t.Error("accepted empty semiring")
	}
	if _, _, err := f.RunCustom(context.Background(), ring, semiring.Ctx{}, vals, nil, 1); err == nil {
		t.Error("accepted sparse-frontier run without frontier")
	}
	bad := &matrix.SparseVec{N: 50, Idx: []int32{1}, Val: []float32{1}}
	if _, _, err := f.RunCustom(context.Background(), ring, semiring.Ctx{}, vals, bad, 1); err == nil {
		t.Error("accepted mismatched frontier length")
	}

	fr := &matrix.SparseVec{N: 100, Idx: []int32{3}, Val: []float32{2}}
	out, rep, err := f.RunCustom(context.Background(), ring, semiring.Ctx{}, vals, fr, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 || rep.TotalCycles <= 0 {
		t.Fatalf("custom run produced %d values, %d cycles", len(out), rep.TotalCycles)
	}
	if rep.Algorithm != "SpMV" {
		t.Fatalf("algorithm label %q", rep.Algorithm)
	}
}

// The driver must not mutate the caller's initial values or frontier.
func TestRunCustomDoesNotMutateInputs(t *testing.T) {
	m := gen.Uniform(80, 800, gen.UniformWeight, 84)
	f := newFW(t, m, Options{})
	ring := semiring.SSSP()
	vals := make(matrix.Dense, 80)
	for i := range vals {
		vals[i] = ring.Identity
	}
	vals[0] = 0
	valsCopy := vals.Clone()
	fr := &matrix.SparseVec{N: 80, Idx: []int32{0}, Val: []float32{0}}

	if _, _, err := f.RunCustom(context.Background(), ring, semiring.Ctx{}, vals, fr, 0); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if vals[i] != valsCopy[i] {
			t.Fatalf("caller values mutated at %d", i)
		}
	}
	if fr.NNZ() != 1 || fr.Idx[0] != 0 {
		t.Fatal("caller frontier mutated")
	}
}

func TestStatsAggregationMatchesIterations(t *testing.T) {
	m := gen.PowerLaw(700, 10000, 0.5, gen.UniformWeight, 85)
	f := newFW(t, m, Options{})
	_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	var loads, stores int64
	for _, it := range rep.Iters {
		loads += it.Stats.Loads
		stores += it.Stats.Stores
	}
	if rep.Stats.Loads != loads || rep.Stats.Stores != stores {
		t.Fatalf("aggregate stats (%d/%d) != per-iteration sums (%d/%d)",
			rep.Stats.Loads, rep.Stats.Stores, loads, stores)
	}
}

// Graphs with self-loops and isolated vertices must run correctly
// through every algorithm (failure-injection-style robustness).
func TestPathologicalGraphs(t *testing.T) {
	elems := []matrix.Coord{
		{Row: 0, Col: 0, Val: 0.5}, // self-loop at the source
		{Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 0.2}, // another self-loop
		// vertices 3 and 4 isolated
	}
	m := matrix.MustCOO(5, 5, elems)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 1, PEsPerTile: 2}})

	res, _, err := lane0(f.BFSBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Level[1] != 1 || res.Level[2] != 2 {
		t.Fatalf("levels %v", res.Level)
	}
	if res.Level[3] != -1 || res.Level[4] != -1 {
		t.Fatal("isolated vertices should be unreachable")
	}

	dist, _, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0 {
		t.Fatalf("self-loop changed the source distance: %g", dist[0])
	}
	if dist[2] != 2 {
		t.Fatalf("dist[2] = %g, want 2", dist[2])
	}

	if _, _, err := lane0(f.PageRankBatch(nil, 1, 3, 0.15)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lane0(f.CFBatch(nil, 1, 3, 0.05, 0.01)); err != nil {
		t.Fatal(err)
	}
}

// A graph where the frontier collapses immediately (source with no
// out-edges) must terminate in one iteration.
func TestDeadEndSource(t *testing.T) {
	m := matrix.MustCOO(4, 4, []matrix.Coord{{Row: 0, Col: 1, Val: 1}})
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 1, PEsPerTile: 2}})
	dist, rep, err := lane0(f.SSSPBatch(nil, []int32{0})) // vertex 0 has no outgoing edges
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iters) != 1 {
		t.Fatalf("%d iterations, want 1", len(rep.Iters))
	}
	for v := 1; v < 4; v++ {
		if dist[v] < 1e30 {
			t.Fatalf("vertex %d reachable from a dead end", v)
		}
	}
}

func TestOnIterationHookObservesFrontiers(t *testing.T) {
	m := gen.PowerLaw(500, 8000, 0.55, gen.UniformWeight, 87)
	var sizes []int
	opts := Options{
		Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4},
		OnIteration: func(st IterStat, next *matrix.SparseVec) {
			if next != nil {
				sizes = append(sizes, next.NNZ())
			} else {
				sizes = append(sizes, -1)
			}
		},
	}
	f, err := NewFromStore(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != len(rep.Iters) {
		t.Fatalf("hook fired %d times for %d iterations", len(sizes), len(rep.Iters))
	}
	// The hook's frontier at iteration i is the input of iteration i+1.
	for i := 0; i+1 < len(rep.Iters); i++ {
		if sizes[i] != rep.Iters[i+1].FrontierNNZ {
			t.Fatalf("hook frontier %d at iter %d != next iteration's input %d",
				sizes[i], i, rep.Iters[i+1].FrontierNNZ)
		}
	}
}
