package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
)

// DVCCSC is delta-varint compressed sparse column: the CSC mirror of
// DVCSR, holding per column the first row index and then the strictly
// positive gaps to each subsequent row, all as unsigned varints in one
// contiguous byte stream. It is what the OP (outer-product) kernel's
// partition builder consumes when the resident row store is
// compressed, so the column side never materializes uncompressed CSC
// build scratch. Values, when present, are stored column-major so the
// k-th decoded element of the stream pairs with Val[k]; unit-weight
// graphs elide the array exactly like DVCSR. ChunkOff gives an
// absolute byte offset every ChunkCols columns for seekable decode.
type DVCCSC struct {
	R, C      int
	Ptr       []int32 // column element prefix, length C+1
	Data      []byte  // concatenated per-column delta-varint row streams
	ChunkCols int     // columns per ChunkOff entry
	ChunkOff  []int64 // byte offset of column j*ChunkCols's stream
	Val       []float32
	// Weighted records whether Val is present; when false every stored
	// element has value 1 and Val is nil.
	Weighted bool
}

// NNZ returns the number of stored elements.
func (d *DVCCSC) NNZ() int {
	if len(d.Ptr) != d.C+1 || d.C < 0 {
		return 0
	}
	return int(d.Ptr[d.C])
}

// Dims returns the matrix dimensions (rows, cols).
func (d *DVCCSC) Dims() (int, int) { return d.R, d.C }

// ResidentBytes is the measured footprint of the backing arrays.
func (d *DVCCSC) ResidentBytes() int64 {
	return int64(len(d.Data)) + 4*int64(len(d.Ptr)) + 8*int64(len(d.ChunkOff)) + 4*int64(len(d.Val))
}

// EncodeDVCCSC builds the compressed column store directly from any
// row-major store in two streaming passes — counting pass for the
// per-column element and byte totals, placement pass writing each
// column's varints at its final offset — without materializing an
// uncompressed CSC (or COO) intermediate. Row-major decode order makes
// the per-column row indices arrive ascending, which is exactly the
// gap-positivity the encoding needs.
func EncodeDVCCSC(st Store) (*DVCCSC, error) {
	r, c := st.Dims()
	if r < 0 || c < 0 || r > math.MaxInt32 || c > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: dvccsc: dimensions %dx%d outside 32-bit index space", r, c)
	}
	if st.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: dvccsc: %d elements exceed 32-bit index space", st.NNZ())
	}
	d := &DVCCSC{
		R:         r,
		C:         c,
		Ptr:       make([]int32, c+1),
		ChunkCols: DefaultChunkRows,
	}
	prev := make([]int32, c)
	for j := range prev {
		prev[j] = -1
	}
	bytesAt := make([]int64, c+1)
	weighted := false
	var encErr error
	st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		if encErr != nil {
			return
		}
		if col < 0 || int(col) >= c || row <= prev[col] {
			encErr = fmt.Errorf("matrix: dvccsc: stream not canonical at (%d,%d)", row, col)
			return
		}
		d.Ptr[col+1]++
		if prev[col] < 0 {
			bytesAt[col+1] += int64(uvarintLen(uint64(row)))
		} else {
			bytesAt[col+1] += int64(uvarintLen(uint64(row - prev[col])))
		}
		prev[col] = row
		if val != 1 {
			weighted = true
		}
	})
	if encErr != nil {
		return nil, encErr
	}
	for j := 0; j < c; j++ {
		d.Ptr[j+1] += d.Ptr[j]
		bytesAt[j+1] += bytesAt[j]
	}
	nchunks := (c + d.ChunkCols - 1) / d.ChunkCols
	d.ChunkOff = make([]int64, nchunks)
	for ch := 0; ch < nchunks; ch++ {
		d.ChunkOff[ch] = bytesAt[ch*d.ChunkCols]
	}
	d.Data = make([]byte, bytesAt[c])
	d.Weighted = weighted
	if weighted {
		d.Val = make([]float32, st.NNZ())
	}
	// Placement pass: bytesAt and a copy of the element prefix become
	// per-column write cursors.
	vcur := make([]int32, c)
	copy(vcur, d.Ptr[:c])
	for j := range prev {
		prev[j] = -1
	}
	var buf [binary.MaxVarintLen64]byte
	st.DecodeRows(0, int32(r), func(row, col int32, val float32) {
		var g uint64
		if prev[col] < 0 {
			g = uint64(row)
		} else {
			g = uint64(row - prev[col])
		}
		prev[col] = row
		n := binary.PutUvarint(buf[:], g)
		copy(d.Data[bytesAt[col]:], buf[:n])
		bytesAt[col] += int64(n)
		if weighted {
			d.Val[vcur[col]] = val
			vcur[col]++
		}
	})
	return d, nil
}

// Validate checks every structural invariant of the compressed stream,
// decoding it end to end with full bounds checks — the column-major
// mirror of DVCSR.Validate, and the screen every untrusted DVCCSC must
// pass before DecodeCols may be used.
func (d *DVCCSC) Validate() error {
	if d.R < 0 || d.C < 0 || d.R > math.MaxInt32 || d.C > math.MaxInt32 {
		return fmt.Errorf("matrix: dvccsc: dimensions %dx%d outside 32-bit index space", d.R, d.C)
	}
	if len(d.Ptr) != d.C+1 {
		return fmt.Errorf("matrix: dvccsc: ColPtr length %d, want %d", len(d.Ptr), d.C+1)
	}
	if d.Ptr[0] != 0 {
		return fmt.Errorf("matrix: dvccsc: ColPtr starts at %d, want 0", d.Ptr[0])
	}
	for j := 0; j < d.C; j++ {
		if d.Ptr[j] > d.Ptr[j+1] {
			return fmt.Errorf("matrix: dvccsc: ColPtr not monotone at column %d", j)
		}
	}
	nnz := int(d.Ptr[d.C])
	if nnz < 0 {
		return fmt.Errorf("matrix: dvccsc: negative element count %d", nnz)
	}
	if d.Weighted && len(d.Val) != nnz {
		return fmt.Errorf("matrix: dvccsc: %d values for %d elements", len(d.Val), nnz)
	}
	if !d.Weighted && len(d.Val) != 0 {
		return fmt.Errorf("matrix: dvccsc: unweighted stream carries %d values", len(d.Val))
	}
	if d.ChunkCols < 1 {
		return fmt.Errorf("matrix: dvccsc: ChunkCols %d, want >= 1", d.ChunkCols)
	}
	wantChunks := 0
	if d.C > 0 {
		wantChunks = (d.C + d.ChunkCols - 1) / d.ChunkCols
	}
	if len(d.ChunkOff) != wantChunks {
		return fmt.Errorf("matrix: dvccsc: %d chunk offsets, want %d", len(d.ChunkOff), wantChunks)
	}
	pos := 0
	for j := 0; j < d.C; j++ {
		if j%d.ChunkCols == 0 {
			if off := d.ChunkOff[j/d.ChunkCols]; off != int64(pos) {
				return fmt.Errorf("matrix: dvccsc: chunk %d offset %d, stream is at %d", j/d.ChunkCols, off, pos)
			}
		}
		var err error
		pos, err = d.scanCol(j, pos, nil)
		if err != nil {
			return err
		}
	}
	if pos != len(d.Data) {
		return fmt.Errorf("matrix: dvccsc: stream ends at byte %d, Data has %d", pos, len(d.Data))
	}
	return nil
}

// scanCol decodes column j's varint stream starting at byte pos,
// returning the position after the column. emit, when non-nil,
// receives each decoded row index. Every read is bounds-checked so
// hostile or truncated streams fail with an error, never a panic.
func (d *DVCCSC) scanCol(j, pos int, emit func(row int32)) (int, error) {
	count := int(d.Ptr[j+1] - d.Ptr[j])
	row := int64(-1)
	for k := 0; k < count; k++ {
		if pos >= len(d.Data) {
			return 0, fmt.Errorf("matrix: dvccsc: truncated stream in column %d (element %d of %d)", j, k, count)
		}
		v, n := binary.Uvarint(d.Data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("matrix: dvccsc: malformed varint in column %d at byte %d", j, pos)
		}
		pos += n
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("matrix: dvccsc: varint %d in column %d outside 32-bit index space", v, j)
		}
		if row < 0 {
			row = int64(v)
		} else {
			if v == 0 {
				return 0, fmt.Errorf("matrix: dvccsc: zero row gap in column %d (duplicate row)", j)
			}
			row += int64(v)
		}
		if row >= int64(d.R) {
			return 0, fmt.Errorf("matrix: dvccsc: row %d in column %d outside %d rows", row, j, d.R)
		}
		if emit != nil {
			emit(int32(row))
		}
	}
	return pos, nil
}

// decodeRange streams the elements of columns [lo, hi) in column-major
// order with full bounds checking, seeking via the chunk index.
func (d *DVCCSC) decodeRange(lo, hi int32, emit func(row, col int32, val float32)) error {
	if lo < 0 {
		lo = 0
	}
	if int(hi) > d.C {
		hi = int32(d.C)
	}
	if lo >= hi {
		return nil
	}
	if len(d.Ptr) != d.C+1 || d.ChunkCols < 1 {
		return fmt.Errorf("matrix: dvccsc: malformed header (ColPtr %d for %d columns, ChunkCols %d)", len(d.Ptr), d.C, d.ChunkCols)
	}
	chunk := int(lo) / d.ChunkCols
	if chunk >= len(d.ChunkOff) {
		return fmt.Errorf("matrix: dvccsc: column %d beyond the chunk index", lo)
	}
	off := d.ChunkOff[chunk]
	if off < 0 || off > int64(len(d.Data)) {
		return fmt.Errorf("matrix: dvccsc: chunk %d offset %d outside %d data bytes", chunk, off, len(d.Data))
	}
	pos := int(off)
	for j := chunk * d.ChunkCols; j < int(lo); j++ {
		var err error
		pos, err = d.scanCol(j, pos, nil)
		if err != nil {
			return err
		}
	}
	for j := int(lo); j < int(hi); j++ {
		col := int32(j)
		k := d.Ptr[j]
		if d.Weighted && (k < 0 || int(d.Ptr[j+1]) > len(d.Val)) {
			return fmt.Errorf("matrix: dvccsc: column %d elements [%d,%d) outside %d values", j, k, d.Ptr[j+1], len(d.Val))
		}
		var err error
		pos, err = d.scanCol(j, pos, func(row int32) {
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

// DecodeCols streams columns [lo, hi) in column-major, row-ascending
// order. The store must be trusted (built by EncodeDVCCSC) or have
// passed Validate; corruption discovered mid-stream panics.
func (d *DVCCSC) DecodeCols(lo, hi int32, emit func(row, col int32, val float32)) {
	if err := d.decodeRange(lo, hi, emit); err != nil {
		panic(err)
	}
}

// ToCSC materializes the uncompressed CSC, enforcing the stream
// invariants along the way; hostile streams error rather than panic,
// so it pairs with Validate in the fuzz harness.
func (d *DVCCSC) ToCSC() (*CSC, error) {
	if len(d.Ptr) != d.C+1 {
		return nil, fmt.Errorf("matrix: dvccsc: ColPtr length %d, want %d", len(d.Ptr), d.C+1)
	}
	nnz := d.NNZ()
	if nnz < 0 || (d.Weighted && len(d.Val) != nnz) {
		return nil, fmt.Errorf("matrix: dvccsc: inconsistent element count %d (%d values)", nnz, len(d.Val))
	}
	prealloc := nnz
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	out := &CSC{
		R:      d.R,
		C:      d.C,
		ColPtr: make([]int32, 0, d.C+1),
		Row:    make([]int32, 0, prealloc),
		Val:    make([]float32, 0, prealloc),
	}
	out.ColPtr = append(out.ColPtr, 0)
	cur := int32(0)
	err := d.decodeRange(0, int32(d.C), func(row, col int32, val float32) {
		for cur < col {
			out.ColPtr = append(out.ColPtr, int32(len(out.Row)))
			cur++
		}
		out.Row = append(out.Row, row)
		out.Val = append(out.Val, val)
	})
	if err != nil {
		return nil, err
	}
	for int(cur) < d.C {
		out.ColPtr = append(out.ColPtr, int32(len(out.Row)))
		cur++
	}
	if len(out.Val) != nnz {
		return nil, fmt.Errorf("matrix: dvccsc: decoded %d elements, ColPtr promises %d", len(out.Val), nnz)
	}
	return out, nil
}
