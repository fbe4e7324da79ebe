// Package matrix implements the sparse-matrix and vector storage
// substrate used throughout CoSPARSE.
//
// The paper (§III-A, §III-D2) keeps two copies of the adjacency matrix
// resident — row-major COO for the inner-product (IP) kernel and CSC
// for the outer-product (OP) kernel — so that per-iteration software
// reconfiguration never pays a matrix conversion. This package provides
// those formats, CSR for the CPU baselines, dense and sparse vectors
// for the frontier, and the conversions between all of them.
//
// Conventions: a matrix has R rows and C columns; element (i, j) of the
// adjacency matrix of a graph means an edge from vertex j (source) to
// vertex i (destination), i.e. the matrix is already the transpose
// G.T that the paper's SpMV abstraction f_next = SpMV(G.T, f) consumes.
// Values are float32 — one 4-byte machine word of the modelled
// hardware.
package matrix

import (
	"fmt"
	"math"
	"sort"
)

// Coord is a single (row, col, value) triple. Generators produce
// []Coord which is then packed into the compressed formats.
type Coord struct {
	Row, Col int32
	Val      float32
}

// COO is a coordinate-format sparse matrix sorted row-major
// (by Row, then Col). This is the storage the IP kernel streams.
type COO struct {
	R, C int
	Row  []int32
	Col  []int32
	Val  []float32
}

// CSR is compressed sparse row. RowPtr has length R+1.
type CSR struct {
	R, C   int
	RowPtr []int32
	Col    []int32
	Val    []float32
}

// CSC is compressed sparse column. ColPtr has length C+1. Row indices
// within a column are sorted ascending — the OP merge kernel depends on
// this invariant.
type CSC struct {
	R, C   int
	ColPtr []int32
	Row    []int32
	Val    []float32
}

// NNZ returns the number of stored elements.
func (m *COO) NNZ() int { return len(m.Val) }

// NNZ returns the number of stored elements.
func (m *CSR) NNZ() int { return len(m.Val) }

// NNZ returns the number of stored elements.
func (m *CSC) NNZ() int { return len(m.Val) }

// Density returns NNZ / (R*C).
func (m *COO) Density() float64 {
	if m.R == 0 || m.C == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.R) * float64(m.C))
}

// NewCOO builds a row-major-sorted, deduplicated COO matrix from
// coordinate triples. Duplicate (row, col) entries are combined by
// addition, matching the usual sparse-assembly semantics. It returns an
// error if any coordinate is out of range.
func NewCOO(r, c int, elems []Coord) (*COO, error) {
	if r < 0 || c < 0 {
		return nil, fmt.Errorf("matrix: negative dimension %dx%d", r, c)
	}
	// Row/Col/RowPtr are int32 throughout the kernels; anything past
	// MaxInt32 would wrap silently in the compressed prefixes.
	if r > math.MaxInt32 || c > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: dimensions %dx%d outside 32-bit index space", r, c)
	}
	if len(elems) > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: %d elements exceed 32-bit index space", len(elems))
	}
	for _, e := range elems {
		if e.Row < 0 || int(e.Row) >= r || e.Col < 0 || int(e.Col) >= c {
			return nil, fmt.Errorf("matrix: coordinate (%d,%d) outside %dx%d", e.Row, e.Col, r, c)
		}
	}
	sorted := make([]Coord, len(elems))
	copy(sorted, elems)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &COO{R: r, C: c}
	for _, e := range sorted {
		n := len(m.Row)
		if n > 0 && m.Row[n-1] == e.Row && m.Col[n-1] == e.Col {
			m.Val[n-1] += e.Val
			continue
		}
		m.Row = append(m.Row, e.Row)
		m.Col = append(m.Col, e.Col)
		m.Val = append(m.Val, e.Val)
	}
	return m, nil
}

// MustCOO is NewCOO that panics on error; for tests and generators
// whose inputs are constructed in-range.
func MustCOO(r, c int, elems []Coord) *COO {
	m, err := NewCOO(r, c, elems)
	if err != nil {
		panic(err)
	}
	return m
}

// Validate checks the COO invariants: in-range coordinates, row-major
// sort order, no duplicates, consistent slice lengths.
func (m *COO) Validate() error {
	if len(m.Row) != len(m.Col) || len(m.Col) != len(m.Val) {
		return fmt.Errorf("matrix: COO slice lengths disagree: %d/%d/%d", len(m.Row), len(m.Col), len(m.Val))
	}
	if m.R > math.MaxInt32 || m.C > math.MaxInt32 {
		return fmt.Errorf("matrix: dimensions %dx%d outside 32-bit index space", m.R, m.C)
	}
	if len(m.Val) > math.MaxInt32 {
		return fmt.Errorf("matrix: %d elements exceed 32-bit index space", len(m.Val))
	}
	for k := range m.Row {
		if m.Row[k] < 0 || int(m.Row[k]) >= m.R || m.Col[k] < 0 || int(m.Col[k]) >= m.C {
			return fmt.Errorf("matrix: element %d at (%d,%d) outside %dx%d", k, m.Row[k], m.Col[k], m.R, m.C)
		}
		if k > 0 {
			if m.Row[k] < m.Row[k-1] || (m.Row[k] == m.Row[k-1] && m.Col[k] <= m.Col[k-1]) {
				return fmt.Errorf("matrix: COO not strictly row-major at element %d", k)
			}
		}
	}
	return nil
}

// ToCSR converts to compressed sparse row.
func (m *COO) ToCSR() *CSR {
	out := &CSR{
		R:      m.R,
		C:      m.C,
		RowPtr: make([]int32, m.R+1),
		Col:    make([]int32, m.NNZ()),
		Val:    make([]float32, m.NNZ()),
	}
	for _, r := range m.Row {
		out.RowPtr[r+1]++
	}
	for i := 0; i < m.R; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	// COO is already row-major sorted, so a straight copy preserves
	// per-row column order.
	copy(out.Col, m.Col)
	copy(out.Val, m.Val)
	return out
}

// ToCSC converts to compressed sparse column. Row indices within each
// column come out ascending because the COO input is row-major sorted
// and the counting placement is stable.
func (m *COO) ToCSC() *CSC {
	out := &CSC{
		R:      m.R,
		C:      m.C,
		ColPtr: make([]int32, m.C+1),
		Row:    make([]int32, m.NNZ()),
		Val:    make([]float32, m.NNZ()),
	}
	for _, c := range m.Col {
		out.ColPtr[c+1]++
	}
	for j := 0; j < m.C; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	next := make([]int32, m.C)
	copy(next, out.ColPtr[:m.C])
	for k := range m.Val {
		c := m.Col[k]
		p := next[c]
		out.Row[p] = m.Row[k]
		out.Val[p] = m.Val[k]
		next[c] = p + 1
	}
	return out
}

// ToCOO converts CSR back to row-major COO.
func (m *CSR) ToCOO() *COO {
	out := &COO{
		R:   m.R,
		C:   m.C,
		Row: make([]int32, m.NNZ()),
		Col: make([]int32, m.NNZ()),
		Val: make([]float32, m.NNZ()),
	}
	for i := 0; i < m.R; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			out.Row[p] = int32(i)
			out.Col[p] = m.Col[p]
			out.Val[p] = m.Val[p]
		}
	}
	return out
}

// ToCOO converts CSC to row-major COO (requires a sort by row).
func (m *CSC) ToCOO() *COO {
	elems := make([]Coord, 0, m.NNZ())
	for j := 0; j < m.C; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			elems = append(elems, Coord{Row: m.Row[p], Col: int32(j), Val: m.Val[p]})
		}
	}
	out, err := NewCOO(m.R, m.C, elems)
	if err != nil {
		panic(err) // impossible: coordinates come from a valid CSC
	}
	return out
}

// Validate checks CSC invariants: monotone ColPtr covering all
// elements, in-range ascending row indices per column.
func (m *CSC) Validate() error {
	if len(m.ColPtr) != m.C+1 {
		return fmt.Errorf("matrix: CSC ColPtr length %d, want %d", len(m.ColPtr), m.C+1)
	}
	if m.ColPtr[0] != 0 || int(m.ColPtr[m.C]) != m.NNZ() {
		return fmt.Errorf("matrix: CSC ColPtr endpoints %d..%d, want 0..%d", m.ColPtr[0], m.ColPtr[m.C], m.NNZ())
	}
	for j := 0; j < m.C; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] {
			return fmt.Errorf("matrix: CSC ColPtr not monotone at column %d", j)
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.Row[p] < 0 || int(m.Row[p]) >= m.R {
				return fmt.Errorf("matrix: CSC row %d out of range in column %d", m.Row[p], j)
			}
			if p > m.ColPtr[j] && m.Row[p] <= m.Row[p-1] {
				return fmt.Errorf("matrix: CSC rows not ascending in column %d", j)
			}
		}
	}
	return nil
}

// Validate checks CSR invariants.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.R+1 {
		return fmt.Errorf("matrix: CSR RowPtr length %d, want %d", len(m.RowPtr), m.R+1)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.R]) != m.NNZ() {
		return fmt.Errorf("matrix: CSR RowPtr endpoints %d..%d, want 0..%d", m.RowPtr[0], m.RowPtr[m.R], m.NNZ())
	}
	for i := 0; i < m.R; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("matrix: CSR RowPtr not monotone at row %d", i)
		}
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if m.Col[p] < 0 || int(m.Col[p]) >= m.C {
				return fmt.Errorf("matrix: CSR col %d out of range in row %d", m.Col[p], i)
			}
			if p > m.RowPtr[i] && m.Col[p] <= m.Col[p-1] {
				return fmt.Errorf("matrix: CSR cols not ascending in row %d", i)
			}
		}
	}
	return nil
}

// OutDegrees returns, for the adjacency interpretation (element (i,j) =
// edge j→i), the out-degree of every source vertex, i.e. the number of
// stored elements per column. PageRank's Matrix_Op divides by this.
func (m *COO) OutDegrees() []int32 {
	deg := make([]int32, m.C)
	for _, c := range m.Col {
		deg[c]++
	}
	return deg
}

// RowNNZ returns the number of stored elements in each row.
func (m *COO) RowNNZ() []int32 {
	cnt := make([]int32, m.R)
	for _, r := range m.Row {
		cnt[r]++
	}
	return cnt
}
