package cosparse

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
)

// stringsBuilder adapts strings.Builder with a Reader helper for the
// round-trip tests.
type stringsBuilder struct{ strings.Builder }

func (s *stringsBuilder) Reader() *strings.Reader { return strings.NewReader(s.String()) }

// parseEdges parses the "src dst w" lines WriteEdgeList emits.
func parseEdges(t *testing.T, text string) []Edge {
	t.Helper()
	var edges []Edge
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		src, err1 := strconv.Atoi(f[0])
		dst, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("bad edge line %q", line)
		}
		w := 1.0
		if len(f) >= 3 {
			var err error
			w, err = strconv.ParseFloat(f[2], 32)
			if err != nil {
				t.Fatalf("bad weight in %q", line)
			}
		}
		edges = append(edges, Edge{Src: int32(src), Dst: int32(dst), Weight: float32(w)})
	}
	return edges
}

// Widest path (maximum bottleneck): a custom max-min semiring, checked
// against a reference fixed point.
func TestCustomWidestPath(t *testing.T) {
	g, err := GeneratePowerLaw(300, 3000, Weighted, 21)
	if err != nil {
		t.Fatal(err)
	}
	eng := testEngine(t, g)

	src := int32(0)
	initial := make([]float32, g.NumVertices())
	initial[src] = float32(math.Inf(1)) // infinite capacity at the source

	ops := Operators{
		Name:     "widest",
		Identity: 0,
		MatrixOp: func(e EdgeCtx) float32 {
			if e.Weight < e.SrcVal {
				return e.Weight
			}
			return e.SrcVal
		},
		Reduce: func(a, b float32) float32 {
			if a > b {
				return a
			}
			return b
		},
		Improving: func(next, cur float32) bool { return next > cur },
	}
	got, rep, err := eng.RunContext(context.Background(), ops, initial, []int32{src}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) < 2 {
		t.Fatal("widest path converged suspiciously fast")
	}

	// Reference: Bellman-Ford-style fixed point on max-min.
	want := make([]float64, g.NumVertices())
	want[src] = math.Inf(1)
	edges := collectEdges(t, g)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			cand := math.Min(want[e.Src], float64(e.Weight))
			if cand > want[e.Dst] {
				want[e.Dst] = cand
				changed = true
			}
		}
	}
	for v := range want {
		w := want[v]
		gv := float64(got[v])
		if math.IsInf(w, 1) != math.IsInf(gv, 1) {
			t.Fatalf("vertex %d: infinity mismatch (%g vs %g)", v, gv, w)
		}
		if !math.IsInf(w, 1) && math.Abs(w-gv) > 1e-3 {
			t.Fatalf("vertex %d: widest %g, want %g", v, gv, w)
		}
	}
}

// collectEdges recovers the edge list via the public edge-list writer.
func collectEdges(t *testing.T, g *Graph) []Edge {
	t.Helper()
	var sb stringsBuilder
	if err := g.WriteEdgeList(&sb, ""); err != nil {
		t.Fatal(err)
	}
	return parseEdges(t, sb.String())
}

func TestConnectedComponents(t *testing.T) {
	// Two obvious components: a path 0-1-2 and a pair 3-4 (symmetrized).
	g, err := NewGraph(6, []Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0},
		{Src: 1, Dst: 2}, {Src: 2, Dst: 1},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 1, PEsPerTile: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels, _, err := eng.ConnectedComponentsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 0, 0, 3, 3, 5}
	for v := range want {
		if labels[v] != want[v] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

// TestConnectedComponentsContextCancel: a CC run stops at the first
// iteration boundary after its context is cancelled. The hook cancels
// at iteration index 1, after that iteration's context check, so the
// second iteration still runs and the check before the third stops the
// run with the wrapped context error and a 2-iteration partial report.
func TestConnectedComponentsContextCancel(t *testing.T) {
	// A symmetrized 12-vertex path: min-label propagation needs 11
	// iterations to reach the far end.
	var edges []Edge
	for v := int32(0); v < 11; v++ {
		edges = append(edges, Edge{Src: v, Dst: v + 1}, Edge{Src: v + 1, Dst: v})
	}
	g, err := NewGraph(12, edges)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{SimBackend, NativeBackend} {
		ctx, cancel := context.WithCancel(context.Background())
		eng := testEngine(t, g, WithBackend(b), WithIterationHook(func(iter int) error {
			if iter == 1 {
				cancel()
			}
			return nil
		}))
		labels, rep, err := eng.ConnectedComponentsContext(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s backend: err = %v, want wrapped context.Canceled", b, err)
		}
		if labels != nil {
			t.Errorf("%s backend: a cancelled run returned labels", b)
		}
		if rep == nil || len(rep.Iterations) != 2 || rep.TotalIterations != 2 {
			t.Fatalf("%s backend: partial report %+v, want 2 iterations", b, rep)
		}
	}
}

func TestConnectedComponentsLargeAgreesWithBFS(t *testing.T) {
	base, err := GeneratePowerLaw(400, 1200, Unweighted, 33)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetrize through the edge list.
	var sb stringsBuilder
	if err := base.WriteEdgeList(&sb, ""); err != nil {
		t.Fatal(err)
	}
	g, err := LoadEdgeList(sb.Reader(), true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 2, PEsPerTile: 4})
	if err != nil {
		t.Fatal(err)
	}
	labels, _, err := eng.ConnectedComponentsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every vertex must share its label with all BFS-reachable vertices
	// from that label's root.
	res, _, err := eng.BFSContext(context.Background(), labels[0])
	if err != nil {
		t.Fatal(err)
	}
	for v, l := range res.Level {
		if l >= 0 && labels[v] != labels[labels[0]] {
			t.Fatalf("vertex %d reachable from root but in component %d", v, labels[v])
		}
	}
	// Labels must be canonical: the label of a component is its minimum
	// member, so label[label[v]] == label[v].
	for v := range labels {
		if labels[labels[v]] != labels[v] {
			t.Fatalf("label of %d is %d, whose label is %d", v, labels[v], labels[labels[v]])
		}
		if labels[v] > int32(v) {
			t.Fatalf("vertex %d has label %d > its own id", v, labels[v])
		}
	}
}

func TestCustomValidation(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	vals := make([]float32, g.NumVertices())

	if _, _, err := eng.RunContext(context.Background(), Operators{}, vals, nil, 0); err == nil {
		t.Error("accepted empty operators")
	}
	ops := Operators{
		MatrixOp:  func(e EdgeCtx) float32 { return e.SrcVal },
		Reduce:    func(a, b float32) float32 { return a + b },
		Improving: func(a, b float32) bool { return a != b },
	}
	if _, _, err := eng.RunContext(context.Background(), ops, vals[:3], []int32{0}, 0); err == nil {
		t.Error("accepted short value vector")
	}
	if _, _, err := eng.RunContext(context.Background(), ops, vals, []int32{-4}, 0); err == nil {
		t.Error("accepted out-of-range frontier vertex")
	}
	noImprove := Operators{
		MatrixOp: ops.MatrixOp,
		Reduce:   ops.Reduce,
	}
	if _, _, err := eng.RunContext(context.Background(), noImprove, vals, []int32{0}, 0); err == nil {
		t.Error("accepted sparse-frontier operators without Improving")
	}
}

// TestCustomVectorOpApplied: VectorOp post-processes every updated
// destination, so one dense iteration with a constant VectorOp yields
// that constant everywhere, on both backends.
func TestCustomVectorOpApplied(t *testing.T) {
	g := testGraph(t)
	vals := make([]float32, g.NumVertices())
	for i := range vals {
		vals[i] = 1
	}
	ops := Operators{
		Name:          "const",
		DenseFrontier: true,
		MatrixOp:      func(e EdgeCtx) float32 { return e.SrcVal },
		Reduce:        func(a, b float32) float32 { return a + b },
		VectorOp:      func(updated, old float32) float32 { return 7 },
	}
	for _, b := range []Backend{SimBackend, NativeBackend} {
		out, _, err := testEngine(t, g, WithBackend(b)).RunContext(context.Background(), ops, vals, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		for v, x := range out {
			if x != 7 {
				t.Fatalf("%s backend: vertex %d = %v after a constant VectorOp, want 7", b, v, x)
			}
		}
	}
}

func TestCustomDenseFrontierFixedIterations(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	vals := make([]float32, g.NumVertices())
	for i := range vals {
		vals[i] = 1
	}
	ops := Operators{
		Name:          "degree-sum",
		DenseFrontier: true,
		MatrixOp:      func(e EdgeCtx) float32 { return e.SrcVal },
		Reduce:        func(a, b float32) float32 { return a + b },
	}
	out, rep, err := eng.RunContext(context.Background(), ops, vals, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Iterations) != 3 {
		t.Fatalf("ran %d iterations, want 3", len(rep.Iterations))
	}
	// After one iteration out[v] = in-degree; just sanity-check totals
	// stay finite and positive somewhere.
	any := false
	for _, x := range out {
		if x > 0 {
			any = true
		}
		if math.IsNaN(float64(x)) {
			t.Fatal("NaN in custom dense run")
		}
	}
	if !any {
		t.Fatal("all-zero result")
	}
}
