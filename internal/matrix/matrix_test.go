package matrix

import (
	"math"
	"testing"
	"testing/quick"

	"cosparse/internal/rng"
)

func randomCoords(r *rng.Rand, rows, cols, n int) []Coord {
	elems := make([]Coord, n)
	for i := range elems {
		elems[i] = Coord{
			Row: r.Int31n(int32(rows)),
			Col: r.Int31n(int32(cols)),
			Val: r.Float32()*2 - 1,
		}
	}
	return elems
}

func TestNewCOOSortsAndDedups(t *testing.T) {
	m := MustCOO(3, 3, []Coord{
		{2, 1, 1}, {0, 0, 1}, {2, 1, 2}, {1, 2, 3}, {0, 2, 4},
	})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("NNZ = %d, want 4 (duplicate combined)", m.NNZ())
	}
	// The duplicate (2,1) must have summed to 3.
	last := m.NNZ() - 1
	if m.Row[last] != 2 || m.Col[last] != 1 || m.Val[last] != 3 {
		t.Fatalf("last element = (%d,%d,%g), want (2,1,3)", m.Row[last], m.Col[last], m.Val[last])
	}
}

func TestNewCOORejectsOutOfRange(t *testing.T) {
	cases := []Coord{{3, 0, 1}, {0, 3, 1}, {-1, 0, 1}, {0, -1, 1}}
	for _, c := range cases {
		if _, err := NewCOO(3, 3, []Coord{c}); err == nil {
			t.Errorf("NewCOO accepted out-of-range coord %+v", c)
		}
	}
	if _, err := NewCOO(-1, 3, nil); err == nil {
		t.Error("NewCOO accepted negative dimension")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := MustCOO(5, 5, nil)
	if m.NNZ() != 0 || m.Density() != 0 {
		t.Fatalf("empty matrix NNZ=%d density=%g", m.NNZ(), m.Density())
	}
	csr := m.ToCSR()
	csc := m.ToCSC()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := csc.Validate(); err != nil {
		t.Fatal(err)
	}
	y := RefSpMV(m, make(Dense, 5))
	for _, v := range y {
		if v != 0 {
			t.Fatal("SpMV of empty matrix must be zero")
		}
	}
}

func TestConversionRoundTrip(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		m := MustCOO(rows, cols, randomCoords(r, rows, cols, r.Intn(200)))

		csr := m.ToCSR()
		if err := csr.Validate(); err != nil {
			t.Fatalf("trial %d: CSR invalid: %v", trial, err)
		}
		back := csr.ToCOO()
		assertEqualCOO(t, m, back)

		csc := m.ToCSC()
		if err := csc.Validate(); err != nil {
			t.Fatalf("trial %d: CSC invalid: %v", trial, err)
		}
		back2 := csc.ToCOO()
		assertEqualCOO(t, m, back2)
	}
}

func assertEqualCOO(t *testing.T, a, b *COO) {
	t.Helper()
	if a.R != b.R || a.C != b.C || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d", a.R, a.C, a.NNZ(), b.R, b.C, b.NNZ())
	}
	for k := range a.Val {
		if a.Row[k] != b.Row[k] || a.Col[k] != b.Col[k] || a.Val[k] != b.Val[k] {
			t.Fatalf("element %d differs: (%d,%d,%g) vs (%d,%d,%g)",
				k, a.Row[k], a.Col[k], a.Val[k], b.Row[k], b.Col[k], b.Val[k])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+r.Intn(30), 1+r.Intn(30)
		m := MustCOO(rows, cols, randomCoords(r, rows, cols, r.Intn(100)))
		tt := TransposeOf(TransposeOf(m))
		assertEqualCOO(t, m, tt)
	}
}

func TestOutDegreesMatchCSC(t *testing.T) {
	r := rng.New(13)
	m := MustCOO(20, 20, randomCoords(r, 20, 20, 150))
	deg := m.OutDegrees()
	csc := m.ToCSC()
	for j := 0; j < m.C; j++ {
		if got := csc.ColPtr[j+1] - csc.ColPtr[j]; got != deg[j] {
			t.Fatalf("column %d: degree %d vs CSC count %d", j, deg[j], got)
		}
	}
}

func TestSparseVecRoundTrip(t *testing.T) {
	v, err := NewSparseVec(10, []int32{7, 2, 5}, []float32{70, 20, 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	d := v.ToDense(0)
	if d[2] != 20 || d[5] != 50 || d[7] != 70 || d[0] != 0 {
		t.Fatalf("ToDense wrong: %v", d)
	}
}

func TestSparseVecWithNonZeroFill(t *testing.T) {
	inf := float32(math.Inf(1))
	v, err := NewSparseVec(6, []int32{1, 4}, []float32{3, 9})
	if err != nil {
		t.Fatal(err)
	}
	d := v.ToDense(inf)
	if d[0] != inf || d[1] != 3 || d[4] != 9 {
		t.Fatalf("fill not applied: %v", d)
	}
}

func TestSparseVecRejectsBadInput(t *testing.T) {
	if _, err := NewSparseVec(5, []int32{1, 1}, []float32{1, 2}); err == nil {
		t.Error("accepted duplicate index")
	}
	if _, err := NewSparseVec(5, []int32{5}, []float32{1}); err == nil {
		t.Error("accepted out-of-range index")
	}
	if _, err := NewSparseVec(5, []int32{1}, []float32{1, 2}); err == nil {
		t.Error("accepted mismatched lengths")
	}
}

// Property: sparse and dense reference SpMV agree on the touched rows.
func TestRefSpMVSparseMatchesDense(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(60)
		m := MustCOO(n, n, randomCoords(r, n, n, r.Intn(4*n)))
		csc := m.ToCSC()

		var idx []int32
		var val []float32
		for i := 0; i < n; i++ {
			if r.Float64() < 0.3 {
				idx = append(idx, int32(i))
				val = append(val, r.Float32())
			}
		}
		sv, err := NewSparseVec(n, idx, val)
		if err != nil {
			t.Fatal(err)
		}
		dense := RefSpMV(m, sv.ToDense(0))
		sparse := RefSpMVSparse(csc, sv)
		got := sparse.ToDense(0)
		for i := 0; i < n; i++ {
			if math.Abs(float64(dense[i]-got[i])) > 1e-4 {
				t.Fatalf("trial %d row %d: dense %g sparse %g", trial, i, dense[i], got[i])
			}
		}
	}
}

// Property-based: round-tripping COO→CSR→COO and COO→CSC→COO is the
// identity for arbitrary (valid) inputs.
func TestQuickConversionIdentity(t *testing.T) {
	f := func(seed uint64, dims uint16, count uint16) bool {
		r := rng.New(seed)
		rows := 1 + int(dims%37)
		cols := 1 + int(dims/37%37)
		m := MustCOO(rows, cols, randomCoords(r, rows, cols, int(count%300)))
		a := m.ToCSR().ToCOO()
		b := m.ToCSC().ToCOO()
		if a.NNZ() != m.NNZ() || b.NNZ() != m.NNZ() {
			return false
		}
		for k := range m.Val {
			if a.Row[k] != m.Row[k] || a.Col[k] != m.Col[k] || a.Val[k] != m.Val[k] {
				return false
			}
			if b.Row[k] != m.Row[k] || b.Col[k] != m.Col[k] || b.Val[k] != m.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	base := MustCOO(4, 4, []Coord{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 2, Val: 2}, {Row: 2, Col: 0, Val: 3}})

	// COO: break sort order, range, and slice lengths.
	bad := *base
	bad.Row = append([]int32{}, base.Row...)
	bad.Row[0], bad.Row[2] = bad.Row[2], bad.Row[0]
	if bad.Validate() == nil {
		t.Error("COO accepted broken sort order")
	}
	bad2 := *base
	bad2.Col = append([]int32{}, base.Col...)
	bad2.Col[1] = 99
	if bad2.Validate() == nil {
		t.Error("COO accepted out-of-range column")
	}
	bad3 := *base
	bad3.Val = bad3.Val[:2]
	if bad3.Validate() == nil {
		t.Error("COO accepted mismatched lengths")
	}

	// CSR: corrupt pointers and column order.
	csr := base.ToCSR()
	csr.RowPtr[2] = 99
	if csr.Validate() == nil {
		t.Error("CSR accepted corrupt RowPtr")
	}
	csr2 := base.ToCSR()
	csr2.RowPtr = csr2.RowPtr[:3]
	if csr2.Validate() == nil {
		t.Error("CSR accepted short RowPtr")
	}
	csr3 := base.ToCSR()
	csr3.Col[0] = 50
	if csr3.Validate() == nil {
		t.Error("CSR accepted out-of-range column")
	}

	// CSC likewise.
	csc := base.ToCSC()
	csc.ColPtr[1] = 99
	if csc.Validate() == nil {
		t.Error("CSC accepted corrupt ColPtr")
	}
	csc2 := base.ToCSC()
	csc2.ColPtr = csc2.ColPtr[:2]
	if csc2.Validate() == nil {
		t.Error("CSC accepted short ColPtr")
	}
	csc3 := base.ToCSC()
	csc3.Row[0] = -1
	if csc3.Validate() == nil {
		t.Error("CSC accepted negative row")
	}
}

func TestDensityAndCounts(t *testing.T) {
	m := MustCOO(4, 5, []Coord{{Row: 0, Col: 1, Val: 1}, {Row: 0, Col: 2, Val: 1}, {Row: 3, Col: 1, Val: 1}})
	if got, want := m.Density(), 3.0/20.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("density %g, want %g", got, want)
	}
	empty := &COO{R: 0, C: 0}
	if empty.Density() != 0 {
		t.Fatal("empty density must be 0")
	}
	rn := m.RowNNZ()
	if rn[0] != 2 || rn[1] != 0 || rn[3] != 1 {
		t.Fatalf("RowNNZ %v", rn)
	}
}

func TestVectorClonesAreIndependent(t *testing.T) {
	d := Dense{1, 2, 3}
	dc := d.Clone()
	dc[0] = 9
	if d[0] != 1 {
		t.Fatal("Dense.Clone aliases")
	}
	sv, err := NewSparseVec(5, []int32{1, 3}, []float32{10, 30})
	if err != nil {
		t.Fatal(err)
	}
	svc := sv.Clone()
	svc.Val[0] = 99
	svc.Idx[1] = 4
	if sv.Val[0] != 10 || sv.Idx[1] != 3 {
		t.Fatal("SparseVec.Clone aliases")
	}
	if sv.Density() != 2.0/5.0 {
		t.Fatalf("density %g", sv.Density())
	}
	zero := &SparseVec{}
	if zero.Density() != 0 {
		t.Fatal("zero-length density must be 0")
	}
}

func TestSparseVecValidateBranches(t *testing.T) {
	bad := &SparseVec{N: 5, Idx: []int32{1}, Val: []float32{1, 2}}
	if bad.Validate() == nil {
		t.Error("accepted mismatched lengths")
	}
	bad2 := &SparseVec{N: 5, Idx: []int32{3, 1}, Val: []float32{1, 2}}
	if bad2.Validate() == nil {
		t.Error("accepted descending indices")
	}
	bad3 := &SparseVec{N: 5, Idx: []int32{7}, Val: []float32{1}}
	if bad3.Validate() == nil {
		t.Error("accepted out-of-range index")
	}
}
