package matrix

import (
	"strings"
	"testing"

	"cosparse/internal/rng"
)

// mustDVCCSC encodes or fails the test.
func mustDVCCSC(t *testing.T, st Store) *DVCCSC {
	t.Helper()
	d, err := EncodeDVCCSC(st)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// assertEqualCSC compares every array of two column stores.
func assertEqualCSC(t *testing.T, want, got *CSC) {
	t.Helper()
	if want.R != got.R || want.C != got.C {
		t.Fatalf("csc dims %dx%d, want %dx%d", got.R, got.C, want.R, want.C)
	}
	for j := range want.ColPtr {
		if want.ColPtr[j] != got.ColPtr[j] {
			t.Fatalf("csc colptr[%d]: %d, want %d", j, got.ColPtr[j], want.ColPtr[j])
		}
	}
	for k := range want.Row {
		if want.Row[k] != got.Row[k] || want.Val[k] != got.Val[k] {
			t.Fatalf("csc element %d: (%d,%g), want (%d,%g)", k, got.Row[k], got.Val[k], want.Row[k], want.Val[k])
		}
	}
}

func TestDVCCSCRoundTrip(t *testing.T) {
	r := rng.New(101)
	shapes := []struct{ rows, cols, n int }{
		{1, 1, 0},       // empty
		{1, 1, 1},       // single element
		{500, 3, 40},    // tall columns, large row gaps
		{40, 40, 600},   // dense-ish
		{700, 700, 900}, // spans multiple chunk-index entries
	}
	for _, weighted := range []bool{false, true} {
		for _, s := range shapes {
			var elems []Coord
			if weighted {
				elems = randomCoords(r, s.rows, s.cols, s.n)
			} else {
				elems = unitCoords(r, s.rows, s.cols, s.n)
			}
			m := MustCOO(s.rows, s.cols, elems)
			d := mustDVCCSC(t, m)
			if err := d.Validate(); err != nil {
				t.Fatalf("%dx%d weighted=%t: encoded stream invalid: %v", s.rows, s.cols, weighted, err)
			}
			got, err := d.ToCSC()
			if err != nil {
				t.Fatal(err)
			}
			assertEqualCSC(t, m.ToCSC(), got)
			if d.NNZ() != m.NNZ() {
				t.Fatalf("nnz %d, want %d", d.NNZ(), m.NNZ())
			}
			// Elision must track the actual values: Val present exactly
			// when some stored value differs from 1.
			hasNonUnit := false
			for _, v := range m.Val {
				if v != 1 {
					hasNonUnit = true
				}
			}
			if d.Weighted != hasNonUnit {
				t.Fatalf("Weighted=%t for a matrix with non-unit values=%t", d.Weighted, hasNonUnit)
			}
			if d.Weighted && len(d.Val) != m.NNZ() {
				t.Fatalf("weighted matrix: %d values for %d elements", len(d.Val), m.NNZ())
			}
			if !d.Weighted && d.Val != nil {
				t.Fatalf("unit-weight matrix kept a value array (%d entries)", len(d.Val))
			}
		}
	}
}

// colElem is one element of a column-major traversal.
type colElem struct {
	row, col int32
	val      float32
}

// cscCols lists the elements of columns [lo, hi) of an uncompressed
// CSC in column-major order, clamping the range like DecodeCols.
func cscCols(m *CSC, lo, hi int32) []colElem {
	if lo < 0 {
		lo = 0
	}
	if int(hi) > m.C {
		hi = int32(m.C)
	}
	var out []colElem
	for j := lo; j < hi; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			out = append(out, colElem{m.Row[p], j, m.Val[p]})
		}
	}
	return out
}

// decodedCols lists what DecodeCols streams for columns [lo, hi).
func decodedCols(d *DVCCSC, lo, hi int32) []colElem {
	var out []colElem
	d.DecodeCols(lo, hi, func(row, col int32, val float32) {
		out = append(out, colElem{row, col, val})
	})
	return out
}

// DecodeCols through the chunk index must match the CSC reference for
// every subrange.
func TestDVCCSCDecodeColsMatchesCSC(t *testing.T) {
	r := rng.New(103)
	m := MustCOO(600, 600, randomCoords(r, 600, 600, 5000))
	d := mustDVCCSC(t, m)
	csc := m.ToCSC()
	ranges := [][2]int32{{0, 600}, {0, 1}, {599, 600}, {100, 300}, {255, 257}, {256, 512}, {300, 300}, {-5, 9000}}
	for _, rg := range ranges {
		want := cscCols(csc, rg[0], rg[1])
		got := decodedCols(d, rg[0], rg[1])
		if len(got) != len(want) {
			t.Fatalf("cols [%d,%d): %d elements, want %d", rg[0], rg[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cols [%d,%d) element %d: %+v, want %+v", rg[0], rg[1], i, got[i], want[i])
			}
		}
	}
	for j := range csc.ColPtr {
		if d.Ptr[j] != csc.ColPtr[j] {
			t.Fatalf("Ptr[%d] = %d, want %d", j, d.Ptr[j], csc.ColPtr[j])
		}
	}
}

// The compressed column store must produce the identical column
// traversal whichever row store it was encoded from, and that traversal
// is the uncompressed CSC's.
func TestColumnStoresAgreeAcrossFormats(t *testing.T) {
	r := rng.New(107)
	m := MustCOO(400, 400, randomCoords(r, 400, 400, 3000))
	dv, err := EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	want := cscCols(CSCOf(m), 0, 400)
	for name, st := range map[string]Store{"csr": m, "dvcsr": dv} {
		cs, err := EncodeDVCCSC(st)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := decodedCols(cs, 0, 400)
		if len(got) != len(want) {
			t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s element %d: %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestEncodeDVCCSCRejectsNonCanonical(t *testing.T) {
	dup := &COO{R: 4, C: 2, Row: []int32{2, 2}, Col: []int32{0, 0}, Val: []float32{1, 1}}
	oob := &COO{R: 4, C: 1, Row: []int32{0}, Col: []int32{9}, Val: []float32{1}}
	for name, m := range map[string]*COO{"duplicate": dup, "out-of-range": oob} {
		if _, err := EncodeDVCCSC(m); err == nil {
			t.Errorf("%s stream encoded without error", name)
		}
	}
}

func TestDVCCSCValidateRejectsCorruption(t *testing.T) {
	r := rng.New(109)
	m := MustCOO(600, 600, unitCoords(r, 600, 600, 4000))
	fresh := func() *DVCCSC { return mustDVCCSC(t, m) }
	cases := []struct {
		name    string
		corrupt func(d *DVCCSC)
		want    string
	}{
		{"truncated data", func(d *DVCCSC) { d.Data = d.Data[:len(d.Data)-1] }, ""},
		{"trailing bytes", func(d *DVCCSC) { d.Data = append(d.Data, 0x01) }, "stream ends"},
		{"ptr not monotone", func(d *DVCCSC) { d.Ptr[10] = d.Ptr[11] + 5 }, "monotone"},
		{"ptr wrong start", func(d *DVCCSC) { d.Ptr[0] = 1 }, "starts at"},
		{"ptr wrong length", func(d *DVCCSC) { d.Ptr = d.Ptr[:d.C] }, "length"},
		{"chunk offset skew", func(d *DVCCSC) { d.ChunkOff[1]++ }, "chunk"},
		{"chunk index short", func(d *DVCCSC) { d.ChunkOff = d.ChunkOff[:1] }, "chunk offsets"},
		{"bad chunk cols", func(d *DVCCSC) { d.ChunkCols = 0 }, "ChunkCols"},
		{"phantom values", func(d *DVCCSC) { d.Val = make([]float32, 3) }, "values"},
	}
	for _, tc := range cases {
		d := fresh()
		tc.corrupt(d)
		err := d.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted corrupt stream", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := fresh().Validate(); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
}
