package gen

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cosparse/internal/matrix"
)

func TestUniformShape(t *testing.T) {
	m := Uniform(1000, 5000, Pattern, 1)
	if m.R != 1000 || m.C != 1000 {
		t.Fatalf("shape %dx%d", m.R, m.C)
	}
	// Duplicates may shave a little off, but not much at this density.
	if m.NNZ() < 4900 || m.NNZ() > 5000 {
		t.Fatalf("NNZ = %d, want ≈5000", m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range m.Val {
		if v < 1 { // duplicates combine by addition, so v >= 1
			t.Fatalf("pattern value %g < 1", v)
		}
	}
}

func TestUniformDeterminism(t *testing.T) {
	a := Uniform(300, 2000, UniformWeight, 7)
	b := Uniform(300, 2000, UniformWeight, 7)
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed, different NNZ")
	}
	for k := range a.Val {
		if a.Row[k] != b.Row[k] || a.Col[k] != b.Col[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("same seed diverged at element %d", k)
		}
	}
}

func TestPowerLawIsSkewed(t *testing.T) {
	n, nnz := 2000, 20000
	uni := Uniform(n, nnz, Pattern, 3)
	pl := PowerLaw(n, nnz, 0.6, Pattern, 3)
	us, ps := ColStats(uni), ColStats(pl)
	if ps.CV <= us.CV*1.5 {
		t.Fatalf("power-law CV %.3f not clearly above uniform CV %.3f", ps.CV, us.CV)
	}
	if ps.Max <= us.Max {
		t.Fatalf("power-law max degree %d not above uniform %d", ps.Max, us.Max)
	}
	if ps.Gini <= us.Gini {
		t.Fatalf("power-law Gini %.3f not above uniform %.3f", ps.Gini, us.Gini)
	}
}

func TestPowerLawWeights(t *testing.T) {
	m := PowerLaw(500, 3000, 0.5, UniformWeight, 4)
	for _, v := range m.Val {
		if v <= 0 {
			t.Fatalf("weight %g not positive", v)
		}
	}
}

func TestRMATShape(t *testing.T) {
	m := RMAT(10, 8000, Pattern, 5)
	if m.R != 1024 || m.C != 1024 {
		t.Fatalf("shape %dx%d, want 1024x1024", m.R, m.C)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if s := ColStats(m); s.CV < 0.9 {
		t.Fatalf("RMAT column CV %.3f suspiciously uniform", s.CV)
	}
}

func TestFrontierDensity(t *testing.T) {
	for _, d := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		f := Frontier(10000, d, 6)
		if err := f.Validate(); err != nil {
			t.Fatalf("density %g: %v", d, err)
		}
		got := f.Density()
		if math.Abs(got-d) > 0.001+d*0.02 {
			t.Fatalf("density %g: got %g", d, got)
		}
	}
}

func TestFrontierTinyDensityNonEmpty(t *testing.T) {
	f := Frontier(100, 0.0001, 7)
	if f.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (rounded up from 0.01 entries)", f.NNZ())
	}
}

func TestFrontierFullDensity(t *testing.T) {
	f := Frontier(64, 1.0, 8)
	if f.NNZ() != 64 {
		t.Fatalf("NNZ = %d, want 64", f.NNZ())
	}
}

func TestSuiteSpecs(t *testing.T) {
	if len(Suite) != 5 {
		t.Fatalf("suite has %d graphs, want 5 (Table III)", len(Suite))
	}
	// Densities from Table III, within rounding of the published values.
	want := map[string]float64{
		"livejournal": 2.9e-6, "pokec": 1.2e-5, "youtube": 2.3e-6,
		"twitter": 2.7e-4, "vsp": 5.0e-3,
	}
	for _, s := range Suite {
		w := want[s.Name]
		if d := s.Density(); d < w*0.7 || d > w*1.4 {
			t.Errorf("%s: density %.2g, Table III says %.2g", s.Name, d, w)
		}
	}
	if _, err := SpecByName("nonesuch"); err == nil {
		t.Error("SpecByName accepted unknown graph")
	}
}

func TestSuiteBuildScaled(t *testing.T) {
	spec, err := SpecByName("twitter")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Build(8, Pattern, 9)
	if m.R != spec.FullVertices/8 {
		t.Fatalf("scaled vertices %d, want %d", m.R, spec.FullVertices/8)
	}
	wantE := float64(spec.FullEdges / 8)
	if math.Abs(float64(m.NNZ())-wantE) > wantE*0.1 {
		t.Fatalf("scaled edges %d, want ≈%g", m.NNZ(), wantE)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSuiteUndirectedIsSymmetric(t *testing.T) {
	spec, err := SpecByName("vsp")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Build(16, Pattern, 10)
	set := make(map[[2]int32]bool, m.NNZ())
	for k := range m.Val {
		set[[2]int32{m.Row[k], m.Col[k]}] = true
	}
	for k := range m.Val {
		if !set[[2]int32{m.Col[k], m.Row[k]}] {
			t.Fatalf("edge (%d,%d) present but reverse missing", m.Row[k], m.Col[k])
		}
	}
}

func TestScaleForBudget(t *testing.T) {
	s := Suite[0] // livejournal, ~69M edges
	if f := s.ScaleForBudget(1000000); f < 64 || f > 128 {
		t.Fatalf("scale factor %d, want 64..128 for a 1M-edge budget", f)
	}
	if f := s.ScaleForBudget(1 << 30); f != 1 {
		t.Fatalf("scale factor %d, want 1 when budget is ample", f)
	}
}

func TestSymmetrizePattern(t *testing.T) {
	m := matrix.MustCOO(3, 3, []matrix.Coord{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1}, {Row: 2, Col: 0, Val: 1},
	})
	s := Symmetrize(m)
	d := func(r, c int32) float32 {
		for k := range s.Val {
			if s.Row[k] == r && s.Col[k] == c {
				return s.Val[k]
			}
		}
		return 0
	}
	if d(0, 1) != 1 || d(1, 0) != 1 {
		t.Fatalf("mutual edge wrong: %g/%g, want 1/1", d(0, 1), d(1, 0))
	}
	if d(2, 0) != 1 || d(0, 2) != 1 {
		t.Fatalf("one-way edge not mirrored with original weight: %g/%g", d(2, 0), d(0, 2))
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	m := Uniform(50, 200, UniformWeight, 11)
	var sb strings.Builder
	if err := WriteEdgeList(&sb, m, "test graph"); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != m.NNZ() {
		t.Fatalf("round trip NNZ %d, want %d", back.NNZ(), m.NNZ())
	}
	// Vertex ids are renumbered by first appearance, so compare
	// structure statistics instead of identity.
	a, b := RowStats(m), RowStats(back)
	if a.Max != b.Max || a.Zeroes < b.Zeroes-1 || math.Abs(a.Mean-b.Mean) > a.Mean*0.1 {
		t.Fatalf("round trip changed structure: %+v vs %+v", a, b)
	}
}

func TestEdgeListParsing(t *testing.T) {
	in := `# comment
% also comment

0 1
1 2 0.5
2 0
`
	m, err := ReadEdgeList(strings.NewReader(in), false)
	if err != nil {
		t.Fatal(err)
	}
	if m.R != 3 || m.NNZ() != 3 {
		t.Fatalf("got %d vertices, %d edges; want 3, 3", m.R, m.NNZ())
	}
}

func TestEdgeListUndirected(t *testing.T) {
	m, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("undirected edges %d, want 4", m.NNZ())
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, in := range []string{"0\n", "a b\n", "0 b\n", "0 1 x\n"} {
		if _, err := ReadEdgeList(strings.NewReader(in), false); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

// Property: frontiers never contain duplicate or out-of-range indices.
func TestQuickFrontierValid(t *testing.T) {
	f := func(seed uint64, n16 uint16, d8 uint8) bool {
		n := 10 + int(n16%5000)
		d := float64(d8%101) / 100
		fr := Frontier(n, d, seed)
		return fr.Validate() == nil && fr.NNZ() <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
