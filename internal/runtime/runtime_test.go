package runtime

import (
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

func newFW(t *testing.T, m *matrix.COO, opts Options) *Framework {
	t.Helper()
	if opts.Geometry == (sim.Geometry{}) {
		opts.Geometry = sim.Geometry{Tiles: 2, PEsPerTile: 4}
	}
	f, err := New(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// ---------- serial references ----------

func refBFSLevels(m *matrix.COO, src int32) []int32 {
	csc := m.ToCSC() // column j lists out-neighbors of j
	level := make([]int32, m.R)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for p := csc.ColPtr[v]; p < csc.ColPtr[v+1]; p++ {
			d := csc.Row[p]
			if level[d] < 0 {
				level[d] = level[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return level
}

func refSSSP(m *matrix.COO, src int32) []float64 {
	dist := make([]float64, m.R)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	// Bellman–Ford over edges (dst=Row, src=Col, weight=Val).
	for iter := 0; iter < m.R; iter++ {
		changed := false
		for k := range m.Val {
			s, d, w := m.Col[k], m.Row[k], float64(m.Val[k])
			if dist[s]+w < dist[d] {
				dist[d] = dist[s] + w
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func refPageRank(m *matrix.COO, iters int, alpha float64) []float64 {
	n := m.R
	deg := m.OutDegrees()
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		for k := range m.Val {
			s, d := m.Col[k], m.Row[k]
			if deg[s] > 0 {
				next[d] += pr[s] / float64(deg[s])
			}
		}
		for i := range next {
			next[i] = alpha + (1-alpha)*next[i]
		}
		pr = next
	}
	return pr
}

// ---------- decision tree ----------

func TestCVDFollowsPaperTakeaway(t *testing.T) {
	pol := DefaultPolicy()
	cvd8, cvd16, cvd32 := pol.CVD(8), pol.CVD(16), pol.CVD(32)
	if !(cvd8 > cvd16 && cvd16 > cvd32) {
		t.Fatalf("CVD not decreasing in PEs/tile: %g %g %g", cvd8, cvd16, cvd32)
	}
	// Paper: ~2% at 8 PEs/tile, ~0.5% at 32.
	if cvd8 < 0.01 || cvd8 > 0.04 {
		t.Errorf("CVD(8) = %g, want ≈0.02", cvd8)
	}
	if cvd32 < 0.002 || cvd32 > 0.01 {
		t.Errorf("CVD(32) = %g, want ≈0.005", cvd32)
	}
}

func TestDecideSWByDensity(t *testing.T) {
	m := gen.Uniform(10000, 100000, gen.Pattern, 1)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	dense := f.Decide(5000) // 50% density
	if !dense.UseIP {
		t.Fatal("dense frontier should use IP")
	}
	sparse := f.Decide(10) // 0.1%
	if sparse.UseIP {
		t.Fatal("sparse frontier should use OP")
	}
}

func TestDecideHWPairingsLegal(t *testing.T) {
	m := gen.Uniform(5000, 50000, gen.Pattern, 2)
	f := newFW(t, m, Options{})
	for _, nnz := range []int{1, 10, 100, 1000, 5000} {
		d := f.Decide(nnz)
		if d.UseIP && (d.HW != sim.SC && d.HW != sim.SCS) {
			t.Fatalf("IP paired with %v", d.HW)
		}
		if !d.UseIP && (d.HW != sim.PC && d.HW != sim.PS) {
			t.Fatalf("OP paired with %v", d.HW)
		}
	}
}

func TestDecideOPListThreshold(t *testing.T) {
	m := gen.Uniform(100000, 500000, gen.Pattern, 3)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	// Tiny list: fits in a 4 kB bank -> PC.
	small := f.Decide(100)
	if small.UseIP || small.HW != sim.PC {
		t.Fatalf("small list decision = %v, want OP/PC", small)
	}
	// Large list (still under CVD(8) ≈ 1.375%): 1300/8 entries × 16 B
	// ≈ 2.6 kB > half a 4 kB bank -> PS.
	big := f.Decide(1300)
	if big.UseIP {
		t.Fatal("1300/100000 = 1.3% should still be OP below the CVD")
	}
	if big.HW != sim.PS {
		t.Fatalf("spilling sorted list got %v, want PS", big.HW)
	}
}

func TestForcedChoicesRespected(t *testing.T) {
	m := gen.Uniform(1000, 10000, gen.Pattern, 4)
	fIP := newFW(t, m, Options{SW: ForceIP, HW: ForceSCS})
	d := fIP.Decide(1) // would naturally be OP
	if !d.UseIP || d.HW != sim.SCS {
		t.Fatalf("forced IP/SCS, got %v", d)
	}
	fOP := newFW(t, m, Options{SW: ForceOP, HW: ForcePS})
	d2 := fOP.Decide(900) // would naturally be IP
	if d2.UseIP || d2.HW != sim.PS {
		t.Fatalf("forced OP/PS, got %v", d2)
	}
}

func TestNewRejectsNonSquare(t *testing.T) {
	m := matrix.MustCOO(3, 4, nil)
	if _, err := New(m, Options{Geometry: sim.Geometry{Tiles: 1, PEsPerTile: 1}}); err == nil {
		t.Fatal("accepted non-square adjacency")
	}
}

// ---------- algorithm correctness on the simulator ----------

func TestBFSMatchesReference(t *testing.T) {
	m := gen.PowerLaw(300, 3000, 0.5, gen.Pattern, 5)
	f := newFW(t, m, Options{})
	res, rep, err := f.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	want := refBFSLevels(m, 0)
	for v := range want {
		if want[v] != res.Level[v] {
			t.Fatalf("vertex %d: level %d, want %d", v, res.Level[v], want[v])
		}
		if want[v] >= 0 && res.Parent[v] < 0 {
			t.Fatalf("vertex %d reachable but has no parent", v)
		}
		if want[v] < 0 && res.Parent[v] >= 0 {
			t.Fatalf("vertex %d unreachable but has parent %d", v, res.Parent[v])
		}
	}
	// Parent edges must exist and connect level L-1 to L.
	edge := make(map[[2]int32]bool)
	for k := range m.Val {
		edge[[2]int32{m.Col[k], m.Row[k]}] = true
	}
	for v := range want {
		p := res.Parent[v]
		if p < 0 || int32(v) == p {
			continue
		}
		if !edge[[2]int32{p, int32(v)}] {
			t.Fatalf("parent edge %d->%d does not exist", p, v)
		}
		if res.Level[p]+1 != res.Level[v] {
			t.Fatalf("parent level mismatch at %d", v)
		}
	}
	if rep.TotalCycles <= 0 || rep.EnergyJ <= 0 {
		t.Fatal("report has no cost")
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	m := gen.PowerLaw(250, 2500, 0.5, gen.UniformWeight, 6)
	f := newFW(t, m, Options{})
	dist, rep, err := f.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	want := refSSSP(m, 0)
	for v := range want {
		if math.IsInf(want[v], 1) != math.IsInf(float64(dist[v]), 1) {
			t.Fatalf("vertex %d: reachability differs", v)
		}
		if !math.IsInf(want[v], 1) && math.Abs(want[v]-float64(dist[v])) > 1e-3 {
			t.Fatalf("vertex %d: dist %g, want %g", v, dist[v], want[v])
		}
	}
	if len(rep.Iters) < 2 {
		t.Fatalf("SSSP converged suspiciously fast: %d iterations", len(rep.Iters))
	}
}

func TestPageRankMatchesReference(t *testing.T) {
	m := gen.PowerLaw(200, 2000, 0.5, gen.Pattern, 7)
	f := newFW(t, m, Options{})
	pr, rep, err := f.PageRank(10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	want := refPageRank(m, 10, 0.15)
	for v := range want {
		if math.Abs(want[v]-float64(pr[v])) > 1e-3*math.Max(want[v], 0.001) {
			t.Fatalf("vertex %d: pr %g, want %g", v, pr[v], want[v])
		}
	}
	if len(rep.Iters) != 10 {
		t.Fatalf("PR ran %d iterations, want 10", len(rep.Iters))
	}
	for _, it := range rep.Iters {
		if !it.Decision.UseIP {
			t.Fatal("PR (dense) must always use IP")
		}
	}
}

func TestCFReducesError(t *testing.T) {
	m := gen.PowerLaw(150, 1500, 0.5, gen.UniformWeight, 8)
	f := newFW(t, m, Options{})
	rmse := func(v matrix.Dense) float64 {
		var s float64
		for k := range m.Val {
			e := float64(m.Val[k]) - float64(v[m.Col[k]])*float64(v[m.Row[k]])
			s += e * e
		}
		return math.Sqrt(s / float64(m.NNZ()))
	}
	init := make(matrix.Dense, m.R)
	for i := range init {
		init[i] = 0.1 + 0.01*float32(i%17)
	}
	before := rmse(init)
	v, _, err := f.CF(12, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	after := rmse(v)
	if after >= before {
		t.Fatalf("CF did not reduce reconstruction error: %g -> %g", before, after)
	}
	for i := range v {
		if math.IsNaN(float64(v[i])) || math.IsInf(float64(v[i]), 0) {
			t.Fatalf("CF diverged at vertex %d: %g", i, v[i])
		}
	}
}

func TestSpMVThroughRuntime(t *testing.T) {
	m := gen.Uniform(500, 5000, gen.UniformWeight, 9)
	f := newFW(t, m, Options{})
	fr := gen.Frontier(500, 0.3, 10)
	out, rep, err := f.SpMV(fr)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.RefSpMV(m, fr.ToDense(0))
	for i := range want {
		if math.Abs(float64(want[i]-out[i])) > 1e-3 {
			t.Fatalf("row %d: %g want %g", i, out[i], want[i])
		}
	}
	if len(rep.Iters) != 1 {
		t.Fatalf("SpMV ran %d iterations", len(rep.Iters))
	}
}

// ---------- reconfiguration behaviour ----------

func TestSSSPSwitchesConfigurations(t *testing.T) {
	// A mid-size power-law graph drives the SSSP frontier from sparse
	// to dense and back: the runtime should use OP at the edges and IP
	// in the middle (the paper's Fig. 9 trace).
	m := gen.PowerLaw(3000, 60000, 0.55, gen.UniformWeight, 11)
	f := newFW(t, m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8}})
	_, rep, err := f.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	sawIP, sawOP, sawReconfig := false, false, false
	for _, it := range rep.Iters {
		if it.Decision.UseIP {
			sawIP = true
		} else {
			sawOP = true
		}
		if it.Reconfig {
			sawReconfig = true
		}
	}
	if !sawIP || !sawOP {
		t.Fatalf("expected both IP and OP iterations (IP=%v OP=%v); densities: %v",
			sawIP, sawOP, densities(rep))
	}
	if !sawReconfig {
		t.Fatal("no reconfiguration recorded")
	}
	if rep.Stats.ReconfigCycles == 0 {
		t.Fatal("reconfiguration cycles not charged")
	}
}

func densities(rep *Report) []float64 {
	var d []float64
	for _, it := range rep.Iters {
		d = append(d, it.Density)
	}
	return d
}

func TestAutoNotSlowerThanWorstForced(t *testing.T) {
	// The whole point of CoSPARSE: auto reconfiguration should beat (or
	// at worst match) the worst static configuration, and generally be
	// close to the best.
	m := gen.PowerLaw(2000, 40000, 0.55, gen.UniformWeight, 12)
	geo := sim.Geometry{Tiles: 2, PEsPerTile: 8}
	run := func(sw SWChoice, hw HWChoice) int64 {
		f := newFW(t, m, Options{Geometry: geo, SW: sw, HW: hw})
		_, rep, err := f.SSSP(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	auto := run(AutoSW, AutoHW)
	ipOnly := run(ForceIP, ForceSC)
	opOnly := run(ForceOP, ForcePC)
	worst := ipOnly
	if opOnly > worst {
		worst = opOnly
	}
	if auto > worst {
		t.Fatalf("auto (%d cycles) slower than the worst static config (IP=%d, OP=%d)",
			auto, ipOnly, opOnly)
	}
}

func TestDeterministicReports(t *testing.T) {
	m := gen.PowerLaw(400, 4000, 0.5, gen.UniformWeight, 13)
	run := func() int64 {
		f := newFW(t, m, Options{})
		_, rep, err := f.SSSP(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestBFSInvalidSource(t *testing.T) {
	m := gen.Uniform(10, 30, gen.Pattern, 14)
	f := newFW(t, m, Options{})
	if _, _, err := f.BFS(-1); err == nil {
		t.Error("accepted negative source")
	}
	if _, _, err := f.BFS(10); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, _, err := f.SSSP(99); err == nil {
		t.Error("SSSP accepted out-of-range source")
	}
	if _, _, err := f.PageRank(0, 0.15); err == nil {
		t.Error("PageRank accepted zero iterations")
	}
	if _, _, err := f.CF(-1, 0.1, 0.1); err == nil {
		t.Error("CF accepted negative iterations")
	}
}

// countingStore counts the elements DecodeRows emits.
type countingStore struct {
	matrix.Store
	emitted atomic.Int64
}

func (c *countingStore) DecodeRows(lo, hi int32, emit func(row, col int32, val float32)) {
	c.Store.DecodeRows(lo, hi, func(row, col int32, val float32) {
		c.emitted.Add(1)
		emit(row, col, val)
	})
}

// An engine decodes its store once: New decodes nothing, and the
// degrees PageRank reads and the OP tiles BFS and SSSP push through
// come from the IP partition's one materialisation.
func TestEngineDecodesStoreOnce(t *testing.T) {
	m := gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 29)
	dv, err := matrix.EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []matrix.Store{m, dv} {
		for _, be := range []exec.Backend{exec.Native(), exec.Sim()} {
			cs := &countingStore{Store: st}
			f, err := NewFromStore(cs, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}, Backend: be})
			if err != nil {
				t.Fatal(err)
			}
			if n := cs.emitted.Load(); n != 0 {
				t.Fatalf("%s/%s: NewFromStore decoded %d elements", st.Format(), be.Name(), n)
			}
			if _, _, err := f.PageRank(2, 0.15); err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.BFS(0); err != nil {
				t.Fatal(err)
			}
			if _, _, err := f.SSSP(0); err != nil {
				t.Fatal(err)
			}
			if n := cs.emitted.Load(); n != int64(m.NNZ()) {
				t.Fatalf("%s/%s: DecodeRows emitted %d elements, want nnz = %d", st.Format(), be.Name(), n, m.NNZ())
			}
		}
	}
}

// A native engine that runs only BFS, SSSP and PageRank never cuts the
// OP tiles: its min-ring pushes read the column index. The first
// generic-ring OP iteration on the engine — SpMV, or a custom ring —
// cuts them, and every answer stays what it was. The simulator reads
// the tiles from its first OP iteration, as before.
func TestNativeEngineCutsTilesLazily(t *testing.T) {
	m := gen.PowerLaw(2000, 20000, 0.6, gen.UniformWeight, 33)
	deg := m.OutDegrees()
	src := int32(0)
	for v, d := range deg {
		if d > deg[src] {
			src = int32(v)
		}
	}
	ranOP := func(what string, rep *Report) {
		t.Helper()
		for _, it := range rep.Iters {
			if !it.Decision.UseIP {
				return
			}
		}
		t.Fatalf("%s ran no OP iteration", what)
	}
	sameVals := func(what string, got, want matrix.Dense) {
		t.Helper()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: vertex %d: %g, want %g", what, i, got[i], want[i])
			}
		}
	}
	traverse := func(f *Framework) (parents []int32, dist, ranks matrix.Dense) {
		t.Helper()
		bfs, brep, err := f.BFS(src)
		if err != nil {
			t.Fatal(err)
		}
		dist, srep, err := f.SSSP(src)
		if err != nil {
			t.Fatal(err)
		}
		if ranks, _, err = f.PageRank(3, 0.15); err != nil {
			t.Fatal(err)
		}
		ranOP("BFS", brep)
		ranOP("SSSP", srep)
		return bfs.Parent, dist, ranks
	}

	native := newFW(t, m, Options{Backend: exec.Native()})
	parents, dist, ranks := traverse(native)
	if native.opPart.ColPtr != nil {
		t.Fatal("BFS, SSSP and PageRank cut the OP tiles")
	}

	// SpMV from a few sources runs the generic push.
	idx := []int32{3, src, 1999}
	slices.Sort(idx)
	idx = slices.Compact(idx)
	f := &matrix.SparseVec{N: m.C, Idx: idx, Val: make([]float32, len(idx))}
	for k := range f.Val {
		f.Val[k] = float32(k) + 0.5
	}
	spmv, rep, err := native.SpMV(f)
	if err != nil {
		t.Fatal(err)
	}
	ranOP("SpMV", rep)
	if native.opPart.ColPtr == nil {
		t.Fatal("a native SpMV OP iteration left the tiles uncut")
	}
	want, _, err := newFW(t, m, Options{Backend: exec.Sim()}).SpMV(f)
	if err != nil {
		t.Fatal(err)
	}
	sameVals("SpMV against the simulator", spmv, want)
	p2, d2, r2 := traverse(native)
	if !slices.Equal(p2, parents) {
		t.Fatal("BFS parents changed once the tiles were cut")
	}
	sameVals("SSSP once the tiles were cut", d2, dist)
	sameVals("PageRank once the tiles were cut", r2, ranks)

	// SSSP under a custom Kind runs the generic push on a fresh engine.
	custom := semiring.SSSP()
	custom.Kind = semiring.KindCustom
	fresh := newFW(t, m, Options{Backend: exec.Native()})
	start := make(matrix.Dense, m.R)
	for i := range start {
		start[i] = custom.Identity
	}
	start[src] = 0
	got, rep, err := fresh.RunCustom(custom, semiring.Ctx{}, start,
		&matrix.SparseVec{N: m.C, Idx: []int32{src}, Val: []float32{0}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranOP("custom SSSP", rep)
	if fresh.opPart.ColPtr == nil {
		t.Fatal("a native custom-ring OP iteration left the tiles uncut")
	}
	sameVals("custom-ring SSSP against the min-ring push", got, dist)

	small := gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 29)
	simulated := newFW(t, small, Options{Backend: exec.Sim()})
	_, rep, err = simulated.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	ranOP("simulated BFS", rep)
	if simulated.opPart.ColPtr == nil {
		t.Fatal("the simulator ran OP without cutting the tiles")
	}
}
