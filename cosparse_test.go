package cosparse

import (
	"math"
	"strings"
	"testing"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := GeneratePowerLaw(500, 5000, Weighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testEngine(t *testing.T, g *Graph, opts ...Option) *Engine {
	t.Helper()
	eng, err := New(g, System{Tiles: 2, PEsPerTile: 4}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestNewGraphFromEdges(t *testing.T) {
	g, err := NewGraph(4, []Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2},
		{Src: 2, Dst: 3, Weight: 0.5},
		{Src: 0, Dst: 2, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatalf("out-degrees wrong: %d, %d", g.OutDegree(0), g.OutDegree(3))
	}
	if g.OutDegree(-1) != 0 || g.OutDegree(99) != 0 {
		t.Fatal("out-of-range OutDegree should be 0")
	}
}

func TestNewGraphRejectsBadEdges(t *testing.T) {
	if _, err := NewGraph(2, []Edge{{Src: 0, Dst: 5}}); err == nil {
		t.Fatal("accepted out-of-range destination")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := testGraph(t)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb, "round trip"); err != nil {
		t.Fatal(err)
	}
	back, err := LoadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d, want %d", back.NumEdges(), g.NumEdges())
	}
}

func TestGenerateSuite(t *testing.T) {
	g, err := GenerateSuite("twitter", 16, Unweighted, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 81306/16 {
		t.Fatalf("scaled vertices %d", g.NumVertices())
	}
	if _, err := GenerateSuite("nonesuch", 1, Unweighted, 2); err == nil {
		t.Fatal("accepted unknown suite graph")
	}
}

func TestGenerateRejectsBadSizes(t *testing.T) {
	if _, err := GenerateUniform(0, 10, Unweighted, 1); err == nil {
		t.Fatal("accepted zero vertices")
	}
	if _, err := GeneratePowerLaw(-5, 10, Unweighted, 1); err == nil {
		t.Fatal("accepted negative vertices")
	}
}

func TestBFSEndToEnd(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	res, rep, err := eng.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Level[0] != 0 || res.Parent[0] != 0 {
		t.Fatalf("source level/parent wrong: %d/%d", res.Level[0], res.Parent[0])
	}
	reached := 0
	for _, l := range res.Level {
		if l >= 0 {
			reached++
		}
	}
	if reached < 2 {
		t.Fatalf("BFS reached only %d vertices", reached)
	}
	if rep.Algorithm != "BFS" || rep.TotalCycles <= 0 || rep.EnergyJ <= 0 {
		t.Fatalf("report wrong: %+v", rep)
	}
	if rep.Seconds != float64(rep.TotalCycles)/1e9 {
		t.Fatal("Seconds must be cycles at 1 GHz")
	}
}

func TestSSSPEndToEnd(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	dist, rep, err := eng.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[0] != 0 {
		t.Fatalf("source distance %g", dist[0])
	}
	// BFS-reachable set must equal SSSP-reachable set.
	bres, _, err := eng.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	for v := range dist {
		if (bres.Level[v] >= 0) != (dist[v] < float32(math.Inf(1))) {
			t.Fatalf("vertex %d: BFS and SSSP disagree on reachability", v)
		}
	}
	if len(rep.Iterations) < 2 {
		t.Fatal("suspiciously fast SSSP")
	}
}

func TestPageRankEndToEnd(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	pr, rep, err := eng.PageRank(5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range pr {
		if x <= 0 || math.IsNaN(float64(x)) {
			t.Fatalf("vertex %d rank %g", v, x)
		}
	}
	if len(rep.Iterations) != 5 {
		t.Fatalf("%d iterations", len(rep.Iterations))
	}
	for _, it := range rep.Iterations {
		if it.Software != "IP" {
			t.Fatal("PageRank must run IP (dense frontier)")
		}
	}
}

func TestCFEndToEnd(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	v, _, err := eng.CF(5, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range v {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			t.Fatalf("vertex %d factor %g", i, x)
		}
	}
}

func TestSpMVEndToEnd(t *testing.T) {
	g, err := NewGraph(3, []Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 0, Dst: 2, Weight: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 1, PEsPerTile: 2})
	if err != nil {
		t.Fatal(err)
	}
	y, _, err := eng.SpMV([]int32{0, 1}, []float32{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// y[1] = 2·x[0] = 2; y[2] = 5·x[0] + 3·x[1] = 8.
	if y[0] != 0 || y[1] != 2 || y[2] != 8 {
		t.Fatalf("SpMV = %v, want [0 2 8]", y)
	}
	if _, _, err := eng.SpMV([]int32{9}, []float32{1}); err == nil {
		t.Fatal("accepted out-of-range index")
	}
}

func TestForcedConfigurationOptions(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g, WithSoftware(OuterProduct), WithHardware(ForcePS))
	_, rep, err := eng.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range rep.Iterations {
		if it.Software != "OP" || it.Hardware != "PS" {
			t.Fatalf("iteration %d ran %s/%s, want OP/PS", it.Iter, it.Software, it.Hardware)
		}
	}
}

func TestDecideExposed(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	swDense, hwDense := eng.Decide(400)
	if swDense != "IP" {
		t.Fatalf("dense decision %s/%s", swDense, hwDense)
	}
	swSparse, hwSparse := eng.Decide(1)
	if swSparse != "OP" {
		t.Fatalf("sparse decision %s/%s", swSparse, hwSparse)
	}
}

func TestReportRendering(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	_, rep, err := eng.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	sum := rep.Summary()
	if !strings.Contains(sum, "SSSP") || !strings.Contains(sum, "2x4") {
		t.Fatalf("Summary missing context: %q", sum)
	}
	tr := rep.Trace()
	if !strings.Contains(tr, "iter") || len(strings.Split(tr, "\n")) < len(rep.Iterations) {
		t.Fatalf("Trace malformed:\n%s", tr)
	}
}

func TestDeterministicEndToEnd(t *testing.T) {
	g := testGraph(t)
	run := func() int64 {
		eng := testEngine(t, g)
		_, rep, err := eng.BFS(0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TotalCycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestSystemString(t *testing.T) {
	if s := (System{Tiles: 16, PEsPerTile: 16}).String(); s != "16x16" {
		t.Fatalf("System.String() = %q", s)
	}
}

func TestEdgesAccessor(t *testing.T) {
	in := []Edge{{Src: 0, Dst: 1, Weight: 2}, {Src: 1, Dst: 2, Weight: 3}}
	g, err := NewGraph(3, in)
	if err != nil {
		t.Fatal(err)
	}
	out := g.Edges()
	if len(out) != 2 {
		t.Fatalf("edges %d", len(out))
	}
	found := 0
	for _, e := range out {
		for _, w := range in {
			if e == w {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("edges round trip lost data: %v", out)
	}
}

func TestDensityTrace(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	_, rep, err := eng.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	tr := rep.DensityTrace()
	if !strings.Contains(tr, "#") || !strings.Contains(tr, "sw") {
		t.Fatalf("trace malformed:\n%s", tr)
	}
	// One column per iteration in the sw row.
	for _, line := range strings.Split(tr, "\n") {
		if strings.Contains(line, "sw  ") {
			cols := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "sw"))
			if len(cols) != len(rep.Iterations) {
				t.Fatalf("sw row %q has %d cols for %d iterations", cols, len(cols), len(rep.Iterations))
			}
		}
	}
	empty := &Report{}
	if !strings.Contains(empty.DensityTrace(), "no iterations") {
		t.Fatal("empty report trace wrong")
	}
}

func TestBetweennessEndToEnd(t *testing.T) {
	// Path 0->1->2->3: interior vertices carry all shortest paths.
	g, err := NewGraph(4, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 1, PEsPerTile: 2})
	if err != nil {
		t.Fatal(err)
	}
	bc, rep, err := eng.Betweenness(0)
	if err != nil {
		t.Fatal(err)
	}
	// delta[2] = 1 (path to 3); delta[1] = 1·(1+1) = 2.
	want := []float32{0, 2, 1, 0}
	for v := range want {
		if bc[v] != want[v] {
			t.Fatalf("BC = %v, want %v", bc, want)
		}
	}
	if rep.Algorithm != "BC" || len(rep.Iterations) == 0 {
		t.Fatalf("report %+v", rep)
	}
	if _, _, err := eng.Betweenness(99); err == nil {
		t.Fatal("accepted bad source")
	}
}
