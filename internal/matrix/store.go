package matrix

// Format names a resident storage layout for a graph's matrix — the
// format seam behind which the engine consumes whatever layout the
// registration-time selector picked.
type Format int

const (
	// FormatCSR is the uncompressed baseline: the canonical row-major
	// COO triple store (value-bearing CSR stream), 12 bytes per edge.
	FormatCSR Format = iota
	// FormatDVCSR is delta-varint CSR: per-row column gaps encoded as
	// unsigned varints, values elided entirely for unit-weight graphs —
	// typically 1–3 bytes per edge on graph-shaped matrices.
	FormatDVCSR
)

// String returns the format's flag/metric/JSON spelling.
func (f Format) String() string {
	if f == FormatDVCSR {
		return "dvcsr"
	}
	return "csr"
}

// Store is the format seam: the resident storage of one sparse matrix,
// able to stream its elements back in the canonical row-major,
// column-ascending order the kernels traverse. Both the uncompressed
// COO baseline and compressed representations implement it; partition
// builders decode per-PE row chunks through DecodeRows into the exact
// operand stream NewCOO would have produced, which is what keeps
// algorithm results bit-identical across formats.
type Store interface {
	// Dims returns the matrix dimensions (rows, cols).
	Dims() (r, c int)
	// NNZ returns the number of stored elements.
	NNZ() int
	// Format names the storage layout.
	Format() Format
	// ResidentBytes is the measured steady-state footprint of this
	// store's backing arrays — the figure admission control charges.
	ResidentBytes() int64
	// RowPtr returns the CSR-style row prefix (length R+1). The slice
	// may be shared with the store; callers must not mutate it.
	RowPtr() []int32
	// DecodeRows streams the stored elements of rows [lo, hi) in
	// row-major, column-ascending order. The store must have been
	// built by a trusted encoder or validated first: corruption found
	// mid-stream panics (hostile inputs are screened by Validate at
	// the parse/build boundary, never handed to the kernels).
	DecodeRows(lo, hi int32, emit func(row, col int32, val float32))
	// ToCOO materializes the store as a canonical row-major COO matrix
	// (the store itself when it already is one).
	ToCOO() (*COO, error)
}

// Dims implements Store.
func (m *COO) Dims() (int, int) { return m.R, m.C }

// Format implements Store: COO is the uncompressed CSR-stream baseline.
func (m *COO) Format() Format { return FormatCSR }

// ResidentBytes implements Store: 12 bytes per stored element (row +
// col + val).
func (m *COO) ResidentBytes() int64 { return int64(m.NNZ()) * 12 }

// RowPtr implements Store, building the CSR-style row prefix.
func (m *COO) RowPtr() []int32 {
	ptr := make([]int32, m.R+1)
	for _, r := range m.Row {
		ptr[r+1]++
	}
	for i := 0; i < m.R; i++ {
		ptr[i+1] += ptr[i]
	}
	return ptr
}

// DecodeRows implements Store by scanning the stored row-major triples.
func (m *COO) DecodeRows(lo, hi int32, emit func(row, col int32, val float32)) {
	// The triples are row-major sorted; binary-search the range bounds.
	start := searchRow(m.Row, lo)
	end := searchRow(m.Row, hi)
	for k := start; k < end; k++ {
		emit(m.Row[k], m.Col[k], m.Val[k])
	}
}

// searchRow returns the first index whose row is >= r.
func searchRow(rows []int32, r int32) int {
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if rows[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// ToCOO implements Store: the COO is already the canonical form.
func (m *COO) ToCOO() (*COO, error) { return m, nil }

// OutDegreesOf returns the out-degree of every source vertex (stored
// elements per column) for any store, decoding one full pass. For the
// COO baseline it is equivalent to COO.OutDegrees.
func OutDegreesOf(st Store) []int32 {
	if m, ok := st.(*COO); ok {
		return m.OutDegrees()
	}
	r, c := st.Dims()
	deg := make([]int32, c)
	st.DecodeRows(0, int32(r), func(_, col int32, _ float32) {
		deg[col]++
	})
	return deg
}

// CSCOf converts any store to compressed sparse column without
// materializing an intermediate COO: one decode pass counts the column
// populations, a second places the elements. Row-major decode order
// makes the per-column row indices come out ascending, exactly like
// COO.ToCSC.
func CSCOf(st Store) *CSC {
	if m, ok := st.(*COO); ok {
		return m.ToCSC()
	}
	r, c := st.Dims()
	out := &CSC{
		R:      r,
		C:      c,
		ColPtr: make([]int32, c+1),
		Row:    make([]int32, st.NNZ()),
		Val:    make([]float32, st.NNZ()),
	}
	st.DecodeRows(0, int32(r), func(_, col int32, _ float32) {
		out.ColPtr[col+1]++
	})
	for j := 0; j < c; j++ {
		out.ColPtr[j+1] += out.ColPtr[j]
	}
	next := make([]int32, c)
	copy(next, out.ColPtr[:c])
	st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		p := next[col]
		out.Row[p] = row
		out.Val[p] = val
		next[col] = p + 1
	})
	return out
}

// TransposeOf returns the transposed matrix in canonical COO form,
// streaming two decode passes (count, place) instead of materializing
// the source as COO first — the counting placement is stable and the
// row-major decode order makes transposed rows come out column-sorted,
// so the result is canonical without a sort.
func TransposeOf(st Store) *COO {
	r, c := st.Dims()
	nnz := st.NNZ()
	out := &COO{
		R:   c,
		C:   r,
		Row: make([]int32, nnz),
		Col: make([]int32, nnz),
		Val: make([]float32, nnz),
	}
	// After the counting pass and its prefix sum, next[j] is the slot
	// of transposed row j's next element.
	next := make([]int32, c+1)
	st.DecodeRows(0, int32(r), func(_, col int32, _ float32) {
		next[col+1]++
	})
	for j := 0; j < c; j++ {
		next[j+1] += next[j]
	}
	st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		p := next[col]
		out.Row[p] = col
		out.Col[p] = row
		out.Val[p] = val
		next[col] = p + 1
	})
	return out
}
