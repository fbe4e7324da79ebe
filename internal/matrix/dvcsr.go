package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DefaultChunkRows is the row granularity of the DVCSR chunk index:
// one absolute byte offset is kept per this many rows, so a decoder
// can start at any row after skipping at most ChunkRows-1 rows of
// varints — the hierarchical-index idea of compression co-designed
// with random access (SMASH), at an 8-byte-per-256-rows overhead.
const DefaultChunkRows = 256

// DVCSR is delta-varint compressed sparse row: per row, the first
// column index and then the strictly positive gaps to each subsequent
// column, all as unsigned varints in one contiguous byte stream. The
// value array is elided entirely when every stored value is exactly 1
// (unweighted graphs — BFS/PR workloads), which is where the bulk of
// the compression on graph data comes from: 12 bytes per edge in the
// COO baseline against typically 1–3 here.
//
// RowPtr doubles as the element prefix the partition cutters need and
// the per-row varint counts the decoder needs, so rows are seekable:
// ChunkOff gives an absolute byte offset every ChunkRows rows, and a
// decoder skips forward from there.
type DVCSR struct {
	R, C      int
	Ptr       []int32 // element prefix, length R+1
	Data      []byte  // concatenated per-row delta-varint column streams
	ChunkRows int     // rows per ChunkOff entry
	ChunkOff  []int64 // byte offset of row i*ChunkRows's stream
	Val       []float32
	// Weighted records whether Val is present; when false every stored
	// element has value 1 and Val is nil.
	Weighted bool
}

// NNZ returns the number of stored elements.
func (d *DVCSR) NNZ() int {
	if len(d.Ptr) != d.R+1 || d.R < 0 {
		return 0
	}
	return int(d.Ptr[d.R])
}

// Dims implements Store.
func (d *DVCSR) Dims() (int, int) { return d.R, d.C }

// Format implements Store.
func (d *DVCSR) Format() Format { return FormatDVCSR }

// ResidentBytes implements Store: the measured footprint of the
// backing arrays.
func (d *DVCSR) ResidentBytes() int64 {
	return int64(len(d.Data)) + 4*int64(len(d.Ptr)) + 8*int64(len(d.ChunkOff)) + 4*int64(len(d.Val))
}

// EncodeDVCSR compresses a canonical (row-major sorted, deduplicated,
// as produced by NewCOO) matrix. It fails on matrices that violate the
// canonical ordering rather than encode an undecodable stream.
func EncodeDVCSR(m *COO) (*DVCSR, error) {
	if m.R < 0 || m.C < 0 || m.R > math.MaxInt32 || m.C > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: dvcsr: dimensions %dx%d outside 32-bit index space", m.R, m.C)
	}
	if len(m.Val) > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: dvcsr: %d elements exceed 32-bit index space", len(m.Val))
	}
	d := &DVCSR{
		R:         m.R,
		C:         m.C,
		Ptr:       m.RowPtr(),
		ChunkRows: DefaultChunkRows,
	}
	nchunks := (m.R + d.ChunkRows - 1) / d.ChunkRows
	d.ChunkOff = make([]int64, nchunks)
	d.Data = make([]byte, 0, estimateDVCSRDataBytes(m))
	for i := 0; i < m.R; i++ {
		if i%d.ChunkRows == 0 {
			d.ChunkOff[i/d.ChunkRows] = int64(len(d.Data))
		}
		prev := int32(-1)
		for k := d.Ptr[i]; k < d.Ptr[i+1]; k++ {
			col := m.Col[k]
			if col <= prev || col < 0 || int(col) >= m.C {
				return nil, fmt.Errorf("matrix: dvcsr: row %d not canonical at column %d", i, col)
			}
			if prev < 0 {
				d.Data = binary.AppendUvarint(d.Data, uint64(col))
			} else {
				d.Data = binary.AppendUvarint(d.Data, uint64(col-prev))
			}
			prev = col
		}
	}
	for _, v := range m.Val {
		if v != 1 {
			d.Weighted = true
			break
		}
	}
	if d.Weighted {
		d.Val = make([]float32, len(m.Val))
		copy(d.Val, m.Val)
	}
	return d, nil
}

// uvarintLen returns the encoded size of one unsigned varint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// estimateDVCSRDataBytes computes the exact size of the Data stream
// EncodeDVCSR would produce, without allocating it — one pass over the
// column gaps. The result is a pure function of the matrix's density
// and degree skew: dense or hub-heavy rows have small gaps and encode
// near one byte per element.
func estimateDVCSRDataBytes(m *COO) int {
	bytes := 0
	prevRow, prevCol := int32(-1), int32(-1)
	for k := range m.Col {
		if m.Row[k] != prevRow {
			prevRow, prevCol = m.Row[k], -1
		}
		if prevCol < 0 {
			bytes += uvarintLen(uint64(m.Col[k]))
		} else {
			bytes += uvarintLen(uint64(m.Col[k] - prevCol))
		}
		prevCol = m.Col[k]
	}
	return bytes
}

// EstimateDVCSRBytes returns the exact resident footprint EncodeDVCSR
// would produce for m, without building it.
func EstimateDVCSRBytes(m *COO) int64 {
	weighted := false
	for _, v := range m.Val {
		if v != 1 {
			weighted = true
			break
		}
	}
	valBytes := int64(0)
	if weighted {
		valBytes = 4 * int64(len(m.Val))
	}
	nchunks := int64(0)
	if m.R > 0 {
		nchunks = int64((m.R + DefaultChunkRows - 1) / DefaultChunkRows)
	}
	return int64(estimateDVCSRDataBytes(m)) + 4*int64(m.R+1) + 8*nchunks + valBytes
}

// AutoSelectThreshold is the minimum space saving (as a ratio of
// baseline to compressed bytes) the registration-time selector
// demands before picking a compressed format over the CSR baseline.
const AutoSelectThreshold = 1.25

// AutoSelectStore picks the storage format for a graph at registration
// time, from either resident representation. The decision is driven by
// the matrix's density and degree skew through the gap distribution:
// delta-varint columns shrink with small gaps and elide values for
// unit weights. The encoded size is exact and computable in one cheap
// pass; DVCSR wins only when it saves at least AutoSelectThreshold×
// over the baseline.
func AutoSelectStore(st Store) Format {
	var enc int64
	switch s := st.(type) {
	case *COO:
		enc = EstimateDVCSRBytes(s)
	case *DVCSR:
		enc = s.ResidentBytes()
	}
	if enc <= 0 {
		return FormatCSR
	}
	base := int64(st.NNZ()) * 12
	if float64(base)/float64(enc) >= AutoSelectThreshold {
		return FormatDVCSR
	}
	return FormatCSR
}

// Validate checks every structural invariant of the compressed stream,
// decoding it end to end with full bounds checks: shape and length
// consistency, chunk offsets that match the actual stream positions,
// strictly ascending in-range columns, and exact byte consumption. It
// is safe on arbitrary hostile bytes and is the screen every untrusted
// DVCSR must pass before DecodeRows may be used.
func (d *DVCSR) Validate() error {
	if d.R < 0 || d.C < 0 || d.R > math.MaxInt32 || d.C > math.MaxInt32 {
		return fmt.Errorf("matrix: dvcsr: dimensions %dx%d outside 32-bit index space", d.R, d.C)
	}
	if len(d.Ptr) != d.R+1 {
		return fmt.Errorf("matrix: dvcsr: RowPtr length %d, want %d", len(d.Ptr), d.R+1)
	}
	if d.Ptr[0] != 0 {
		return fmt.Errorf("matrix: dvcsr: RowPtr starts at %d, want 0", d.Ptr[0])
	}
	for i := 0; i < d.R; i++ {
		if d.Ptr[i] > d.Ptr[i+1] {
			return fmt.Errorf("matrix: dvcsr: RowPtr not monotone at row %d", i)
		}
	}
	nnz := int(d.Ptr[d.R])
	if nnz < 0 {
		return fmt.Errorf("matrix: dvcsr: negative element count %d", nnz)
	}
	if d.Weighted && len(d.Val) != nnz {
		return fmt.Errorf("matrix: dvcsr: %d values for %d elements", len(d.Val), nnz)
	}
	if !d.Weighted && len(d.Val) != 0 {
		return fmt.Errorf("matrix: dvcsr: unweighted stream carries %d values", len(d.Val))
	}
	if d.ChunkRows < 1 {
		return fmt.Errorf("matrix: dvcsr: ChunkRows %d, want >= 1", d.ChunkRows)
	}
	wantChunks := 0
	if d.R > 0 {
		wantChunks = (d.R + d.ChunkRows - 1) / d.ChunkRows
	}
	if len(d.ChunkOff) != wantChunks {
		return fmt.Errorf("matrix: dvcsr: %d chunk offsets, want %d", len(d.ChunkOff), wantChunks)
	}
	pos := 0
	for i := 0; i < d.R; i++ {
		if i%d.ChunkRows == 0 {
			if off := d.ChunkOff[i/d.ChunkRows]; off != int64(pos) {
				return fmt.Errorf("matrix: dvcsr: chunk %d offset %d, stream is at %d", i/d.ChunkRows, off, pos)
			}
		}
		var err error
		pos, err = d.scanRow(i, pos, nil)
		if err != nil {
			return err
		}
	}
	if pos != len(d.Data) {
		return fmt.Errorf("matrix: dvcsr: stream ends at byte %d, Data has %d", pos, len(d.Data))
	}
	return nil
}

// scanRow decodes row i's varint stream starting at byte pos,
// returning the position after the row. emit, when non-nil, receives
// each decoded column. Every read is bounds-checked so hostile or
// truncated streams fail with an error, never a panic or overflow.
func (d *DVCSR) scanRow(i, pos int, emit func(col int32)) (int, error) {
	count := int(d.Ptr[i+1] - d.Ptr[i])
	col := int64(-1)
	for k := 0; k < count; k++ {
		if pos >= len(d.Data) {
			return 0, fmt.Errorf("matrix: dvcsr: truncated stream in row %d (element %d of %d)", i, k, count)
		}
		v, n := binary.Uvarint(d.Data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("matrix: dvcsr: malformed varint in row %d at byte %d", i, pos)
		}
		pos += n
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("matrix: dvcsr: varint %d in row %d outside 32-bit index space", v, i)
		}
		if col < 0 {
			col = int64(v)
		} else {
			if v == 0 {
				return 0, fmt.Errorf("matrix: dvcsr: zero column gap in row %d (duplicate column)", i)
			}
			col += int64(v)
		}
		if col >= int64(d.C) {
			return 0, fmt.Errorf("matrix: dvcsr: column %d in row %d outside %d columns", col, i, d.C)
		}
		if emit != nil {
			emit(int32(col))
		}
	}
	return pos, nil
}

// decodeRange streams the elements of rows [lo, hi) with full bounds
// checking, seeking via the chunk index and skipping rows before lo.
func (d *DVCSR) decodeRange(lo, hi int32, emit func(row, col int32, val float32)) error {
	if lo < 0 {
		lo = 0
	}
	if int(hi) > d.R {
		hi = int32(d.R)
	}
	if lo >= hi {
		return nil
	}
	if len(d.Ptr) != d.R+1 || d.ChunkRows < 1 {
		return fmt.Errorf("matrix: dvcsr: malformed header (RowPtr %d for %d rows, ChunkRows %d)", len(d.Ptr), d.R, d.ChunkRows)
	}
	chunk := int(lo) / d.ChunkRows
	if chunk >= len(d.ChunkOff) {
		return fmt.Errorf("matrix: dvcsr: row %d beyond the chunk index", lo)
	}
	off := d.ChunkOff[chunk]
	if off < 0 || off > int64(len(d.Data)) {
		return fmt.Errorf("matrix: dvcsr: chunk %d offset %d outside %d data bytes", chunk, off, len(d.Data))
	}
	pos := int(off)
	for i := chunk * d.ChunkRows; i < int(lo); i++ {
		var err error
		pos, err = d.scanRow(i, pos, nil)
		if err != nil {
			return err
		}
	}
	for i := int(lo); i < int(hi); i++ {
		row := int32(i)
		k := d.Ptr[i]
		// A non-monotone prefix could promise more elements than the
		// value array holds; reject before the lookup can run past it.
		if d.Weighted && (k < 0 || int(d.Ptr[i+1]) > len(d.Val)) {
			return fmt.Errorf("matrix: dvcsr: row %d elements [%d,%d) outside %d values", i, k, d.Ptr[i+1], len(d.Val))
		}
		var err error
		pos, err = d.scanRow(i, pos, func(col int32) {
			v := float32(1)
			if d.Weighted {
				v = d.Val[k]
			}
			k++
			emit(row, col, v)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// DecodeRows implements Store. The store must be trusted (built by
// EncodeDVCSR) or have passed Validate; corruption discovered
// mid-stream panics, matching the package's other impossible paths.
func (d *DVCSR) DecodeRows(lo, hi int32, emit func(row, col int32, val float32)) {
	if err := d.decodeRange(lo, hi, emit); err != nil {
		panic(err)
	}
}

// ToCOO implements Store, materializing the canonical row-major COO.
// The decode enforces the stream invariants, so the result satisfies
// COO.Validate by construction.
func (d *DVCSR) ToCOO() (*COO, error) {
	if len(d.Ptr) != d.R+1 {
		return nil, fmt.Errorf("matrix: dvcsr: RowPtr length %d, want %d", len(d.Ptr), d.R+1)
	}
	nnz := d.NNZ()
	if nnz < 0 || (d.Weighted && len(d.Val) != nnz) {
		return nil, fmt.Errorf("matrix: dvcsr: inconsistent element count %d (%d values)", nnz, len(d.Val))
	}
	// The row prefix is untrusted here: cap the pre-allocation so a
	// forged element count can't allocate unboundedly — append grows as
	// the stream actually delivers.
	prealloc := nnz
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	out := &COO{
		R:   d.R,
		C:   d.C,
		Row: make([]int32, 0, prealloc),
		Col: make([]int32, 0, prealloc),
		Val: make([]float32, 0, prealloc),
	}
	err := d.decodeRange(0, int32(d.R), func(row, col int32, val float32) {
		out.Row = append(out.Row, row)
		out.Col = append(out.Col, col)
		out.Val = append(out.Val, val)
	})
	if err != nil {
		return nil, err
	}
	if len(out.Val) != nnz {
		return nil, fmt.Errorf("matrix: dvcsr: decoded %d elements, RowPtr promises %d", len(out.Val), nnz)
	}
	return out, nil
}

// RowPtr implements Store (the prefix is stored, not recomputed).
func (d *DVCSR) RowPtr() []int32 { return d.Ptr }
