package matrix

import (
	"strings"
	"testing"

	"cosparse/internal/rng"
)

// mustDVCSR encodes or fails the test.
func mustDVCSR(t *testing.T, m *COO) *DVCSR {
	t.Helper()
	d, err := EncodeDVCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// unitCoords returns random *distinct* coordinates whose values are
// all 1 — the unweighted-graph case where DVCSR elides the value
// array. Distinctness matters: NewCOO merges duplicates by summing, so
// colliding unit edges would produce values of 2 and defeat elision.
func unitCoords(r *rng.Rand, rows, cols, n int) []Coord {
	seen := make(map[int64]bool, n)
	elems := make([]Coord, 0, n)
	for len(elems) < n && len(seen) < rows*cols {
		row, col := r.Int31n(int32(rows)), r.Int31n(int32(cols))
		key := int64(row)<<32 | int64(col)
		if seen[key] {
			continue
		}
		seen[key] = true
		elems = append(elems, Coord{Row: row, Col: col, Val: 1})
	}
	return elems
}

func TestDVCSRRoundTrip(t *testing.T) {
	r := rng.New(41)
	shapes := []struct{ rows, cols, n int }{
		{1, 1, 0},       // empty
		{1, 1, 1},       // single element
		{3, 500, 40},    // wide rows, large gaps
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
			d := mustDVCSR(t, m)
			if err := d.Validate(); err != nil {
				t.Fatalf("%dx%d weighted=%t: encoded stream invalid: %v", s.rows, s.cols, weighted, err)
			}
			got, err := d.ToCOO()
			if err != nil {
				t.Fatal(err)
			}
			assertEqualCOO(t, m, got)
			if d.NNZ() != m.NNZ() {
				t.Fatalf("nnz %d, want %d", d.NNZ(), m.NNZ())
			}
		}
	}
}

// The value array must be elided exactly when every value is 1, and
// the estimate must predict the encoded footprint byte-for-byte.
func TestDVCSRWeightElisionAndEstimate(t *testing.T) {
	r := rng.New(43)
	unit := MustCOO(200, 200, unitCoords(r, 200, 200, 2000))
	du := mustDVCSR(t, unit)
	if du.Weighted || du.Val != nil {
		t.Fatalf("unit-weight matrix kept a value array (%d entries)", len(du.Val))
	}
	weighted := MustCOO(200, 200, randomCoords(r, 200, 200, 2000))
	dw := mustDVCSR(t, weighted)
	if !dw.Weighted || len(dw.Val) != weighted.NNZ() {
		t.Fatalf("weighted matrix: Weighted=%t, %d values for %d elements", dw.Weighted, len(dw.Val), weighted.NNZ())
	}
	for _, m := range []*COO{unit, weighted} {
		d := mustDVCSR(t, m)
		if est := EstimateDVCSRBytes(m); est != d.ResidentBytes() {
			t.Fatalf("estimate %d, encoded %d", est, d.ResidentBytes())
		}
	}
}

// DecodeRows through the chunk index must match the COO reference for
// every subrange, including ranges that start mid-chunk.
func TestDVCSRDecodeRowsMatchesCOO(t *testing.T) {
	r := rng.New(47)
	m := MustCOO(600, 600, randomCoords(r, 600, 600, 5000))
	d := mustDVCSR(t, m)
	type elem struct {
		row, col int32
		val      float32
	}
	collect := func(st Store, lo, hi int32) []elem {
		var out []elem
		st.DecodeRows(lo, hi, func(row, col int32, val float32) {
			out = append(out, elem{row, col, val})
		})
		return out
	}
	ranges := [][2]int32{{0, 600}, {0, 1}, {599, 600}, {100, 300}, {255, 257}, {256, 512}, {300, 300}, {-5, 9000}}
	for _, rg := range ranges {
		want := collect(m, rg[0], rg[1])
		got := collect(d, rg[0], rg[1])
		if len(got) != len(want) {
			t.Fatalf("rows [%d,%d): %d elements, want %d", rg[0], rg[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rows [%d,%d) element %d: %+v, want %+v", rg[0], rg[1], i, got[i], want[i])
			}
		}
	}
}

func TestEncodeDVCSRRejectsNonCanonical(t *testing.T) {
	// Bypass NewCOO to build broken streams a hostile caller could hold.
	dup := &COO{R: 2, C: 4, Row: []int32{0, 0}, Col: []int32{2, 2}, Val: []float32{1, 1}}
	unsorted := &COO{R: 1, C: 4, Row: []int32{0, 0}, Col: []int32{3, 1}, Val: []float32{1, 1}}
	oob := &COO{R: 1, C: 4, Row: []int32{0}, Col: []int32{9}, Val: []float32{1}}
	for name, m := range map[string]*COO{"duplicate": dup, "unsorted": unsorted, "out-of-range": oob} {
		if _, err := EncodeDVCSR(m); err == nil {
			t.Errorf("%s columns encoded without error", name)
		}
	}
}

func TestDVCSRValidateRejectsCorruption(t *testing.T) {
	r := rng.New(59)
	m := MustCOO(600, 600, unitCoords(r, 600, 600, 4000))
	fresh := func() *DVCSR { return mustDVCSR(t, m) }
	cases := []struct {
		name    string
		corrupt func(d *DVCSR)
		want    string
	}{
		// Whether truncation reads as a short stream or a cut varint
		// depends on where the last byte boundary lands, so only the
		// rejection itself is pinned.
		{"truncated data", func(d *DVCSR) { d.Data = d.Data[:len(d.Data)-1] }, ""},
		{"trailing bytes", func(d *DVCSR) { d.Data = append(d.Data, 0x01) }, "stream ends"},
		{"ptr not monotone", func(d *DVCSR) { d.Ptr[10] = d.Ptr[11] + 5 }, "monotone"},
		{"ptr wrong start", func(d *DVCSR) { d.Ptr[0] = 1 }, "starts at"},
		{"ptr wrong length", func(d *DVCSR) { d.Ptr = d.Ptr[:d.R] }, "length"},
		{"chunk offset skew", func(d *DVCSR) { d.ChunkOff[1]++ }, "chunk"},
		{"chunk index short", func(d *DVCSR) { d.ChunkOff = d.ChunkOff[:1] }, "chunk offsets"},
		{"bad chunk rows", func(d *DVCSR) { d.ChunkRows = 0 }, "ChunkRows"},
		{"phantom values", func(d *DVCSR) { d.Val = make([]float32, 3) }, "values"},
		{"zero gap", func(d *DVCSR) {
			// Overwrite row 0's second varint with gap 0 (a duplicate
			// column). Row 0 is non-empty for this seed.
			if d.Ptr[1]-d.Ptr[0] < 2 {
				t.Fatal("test wants >= 2 elements in row 0")
			}
			first := 0
			for d.Data[first]&0x80 != 0 {
				first++
			}
			d.Data[first+1] = 0
		}, ""},
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

// Store-seam helpers must agree across representations: out-degrees
// and the derived CSC are the same whichever store backs the graph.
func TestStoreHelpersAgreeAcrossFormats(t *testing.T) {
	r := rng.New(61)
	m := MustCOO(300, 300, randomCoords(r, 300, 300, 2500))
	d := mustDVCSR(t, m)

	degCOO, degDV := OutDegreesOf(m), OutDegreesOf(d)
	for i := range degCOO {
		if degCOO[i] != degDV[i] {
			t.Fatalf("row %d: degree %d vs %d", i, degCOO[i], degDV[i])
		}
	}

	want, got := m.ToCSC(), CSCOf(d)
	if want.R != got.R || want.C != got.C {
		t.Fatalf("csc dims %dx%d vs %dx%d", got.R, got.C, want.R, want.C)
	}
	for i := range want.ColPtr {
		if want.ColPtr[i] != got.ColPtr[i] {
			t.Fatalf("csc colptr[%d]: %d vs %d", i, got.ColPtr[i], want.ColPtr[i])
		}
	}
	for k := range want.Row {
		if want.Row[k] != got.Row[k] || want.Val[k] != got.Val[k] {
			t.Fatalf("csc element %d: (%d,%g) vs (%d,%g)", k, got.Row[k], got.Val[k], want.Row[k], want.Val[k])
		}
	}
}
