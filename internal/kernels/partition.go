// Package kernels implements the two reconfigurable SpMV dataflows of
// CoSPARSE (§III-A) on the sim machine: the inner-product (IP) kernel
// streaming row-major COO against a dense frontier, and the
// outer-product (OP) kernel merge-sorting CSC columns selected by a
// sparse frontier. Both are generic over a semiring (Table I), execute
// functionally, and charge every memory access to the simulated
// hierarchy.
//
// It also implements the paper's workload-balancing strategies
// (§III-B): static row partitioning with equal nonzeros per PE/tile,
// vertical blocking (vblocks) sized to the scratchpad, and dynamic
// distribution of frontier nonzeros across the PEs of a tile.
package kernels

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// Balancing selects the static partitioning strategy, the knob
// evaluated in the paper's Fig. 7.
type Balancing int

const (
	// BalanceNNZ cuts row partitions with equal numbers of stored
	// elements ("w/ partition" in Fig. 7) — the paper's scheme.
	BalanceNNZ Balancing = iota
	// BalanceRows cuts equal row ranges regardless of their population
	// ("w/o partition"), the naive baseline.
	BalanceRows
)

// String names the strategy as in the paper's figures.
func (b Balancing) String() string {
	if b == BalanceNNZ {
		return "w/ partition"
	}
	return "w/o partition"
}

// cutRows splits [0, rows) into `parts` contiguous ranges. With
// BalanceNNZ the cut points equalize stored elements (at row
// granularity, so no output races between partitions); with BalanceRows
// they equalize row counts. Returns parts+1 boundaries.
func cutRows(ptr []int32, rows, parts int, b Balancing) []int32 {
	bounds := make([]int32, parts+1)
	bounds[parts] = int32(rows)
	if b == BalanceRows {
		for k := 1; k < parts; k++ {
			bounds[k] = int32(rows * k / parts)
		}
		return bounds
	}
	nnz := int64(ptr[rows])
	row := 0
	for k := 1; k < parts; k++ {
		target := nnz * int64(k) / int64(parts)
		for row < rows && int64(ptr[row]) < target {
			row++
		}
		bounds[k] = int32(row)
	}
	return bounds
}

// Seg is one vblock-contiguous run of a PE's elements in the reordered
// IP element stream.
type Seg struct {
	VB     int32 // vblock index (column range VB*width .. (VB+1)*width)
	Lo, Hi int32 // element index range in the partition's arrays
}

// IPPartition is the preprocessed matrix layout for the IP kernel: each
// PE owns a row partition whose elements are stored contiguously,
// grouped by vblock and row-major within a vblock — the memory layout a
// real implementation would produce at load time (the paper performs
// the same preprocessing before execution; its cost is off the critical
// per-iteration path, like Ligra's preprocessed CSR/CSC pair).
type IPPartition struct {
	R, C        int
	NumPEs      int
	VBlockWords int // columns per vblock; 0 = no vertical blocking
	NumVBlocks  int
	Row, Col    []int32
	Val         []float32
	PEPtr       []int32 // per-PE element range: elements of PE p are [PEPtr[p], PEPtr[p+1])
	Segs        [][]Seg // per PE, ordered by vblock
	RowBounds   []int32 // the row cuts, exposed for tests

	src         matrix.Store
	mat         sync.Once
	minPlusSafe bool // set by materialize; see minPlusSafe
}

// NewIPPartition builds the IP layout for a machine with totalPEs
// processing elements and the given vblock width in vector words
// (usually Config.SPMWordsPerTile(); pass 0 to disable blocking).
//
// It is the format seam's consumer: any matrix.Store works. Only the
// row cuts and per-PE element ranges are computed here (from the row
// prefix — no decode); each PE's row chunk is decoded lazily through
// Store.DecodeRows on first kernel use, into the same row-major
// element stream the COO baseline holds, then bucketed by vblock
// exactly as before — so the resulting layout (and therefore every
// kernel's operand order, results, and sim timings) is byte-identical
// whatever the resident format was, and a partition that is never run
// never decodes the graph.
func NewIPPartition(m matrix.Store, totalPEs, vblockWords int, b Balancing) *IPPartition {
	if totalPEs < 1 {
		panic("kernels: totalPEs must be >= 1")
	}
	rows, cols := m.Dims()
	ptr := m.RowPtr()
	bounds := cutRows(ptr, rows, totalPEs, b)
	p := &IPPartition{
		R: rows, C: cols,
		NumPEs:      totalPEs,
		VBlockWords: vblockWords,
		NumVBlocks:  1,
		PEPtr:       make([]int32, totalPEs+1),
		Segs:        make([][]Seg, totalPEs),
		RowBounds:   bounds,
		src:         m,
	}
	if vblockWords > 0 {
		p.NumVBlocks = (cols + vblockWords - 1) / vblockWords
	}
	for pe := 0; pe < totalPEs; pe++ {
		p.PEPtr[pe+1] = ptr[bounds[pe+1]]
	}
	return p
}

// Materialize decodes the partition's element arrays from the source
// store if they have not been decoded yet. Every kernel entry point
// calls it; it is idempotent and safe for concurrent use.
func (p *IPPartition) Materialize() { p.mat.Do(p.materialize) }

// materialize builds the PEs in parallel: a PE's elements land at the
// offset PEPtr already fixes, so workers share nothing but the
// destination arrays, and the layout does not depend on how many
// workers ran.
func (p *IPPartition) materialize() {
	m := p.src
	nnz := int(p.PEPtr[p.NumPEs])
	p.Row = make([]int32, nnz)
	p.Col = make([]int32, nnz)
	p.Val = make([]float32, nnz)
	vbOf := func(col int32) int32 {
		if p.VBlockWords <= 0 {
			return 0
		}
		return col / int32(p.VBlockWords)
	}
	maxBits := make([]uint32, p.NumPEs) // per worker chunk
	chunks := parallelChunks(p.NumPEs, func(c int, peLo, peHi int32) {
		// Scratch for one PE's decoded row chunk, reused across the
		// worker's PEs.
		var cRow, cCol []int32
		var cVal []float32
		var mx uint32
		counts := make([]int32, p.NumVBlocks+1)
		next := make([]int32, p.NumVBlocks)
		for pe := peLo; pe < peHi; pe++ {
			lo, hi := p.RowBounds[pe], p.RowBounds[pe+1]
			base, n := p.PEPtr[pe], p.NNZOfPE(int(pe))
			cRow, cCol, cVal = cRow[:0], cCol[:0], cVal[:0]
			clear(counts)
			m.DecodeRows(lo, hi, func(row, col int32, val float32) {
				cRow = append(cRow, row)
				cCol = append(cCol, col)
				cVal = append(cVal, val)
				counts[vbOf(col)+1]++
				mx = max(mx, math.Float32bits(val))
			})
			if len(cVal) != n {
				panic(fmt.Sprintf("kernels: PE %d decoded %d elements, RowPtr promises %d", pe, len(cVal), n))
			}
			// Bucket the PE's (already row-major) element range by vblock,
			// preserving row-major order inside each bucket.
			for v := 0; v < p.NumVBlocks; v++ {
				counts[v+1] += counts[v]
				if counts[v+1] > counts[v] {
					p.Segs[pe] = append(p.Segs[pe], Seg{VB: int32(v), Lo: base + counts[v], Hi: base + counts[v+1]})
				}
			}
			copy(next, counts)
			for k := 0; k < n; k++ {
				v := vbOf(cCol[k])
				at := base + next[v]
				next[v]++
				p.Row[at] = cRow[k]
				p.Col[at] = cCol[k]
				p.Val[at] = cVal[k]
			}
		}
		maxBits[c] = mx
	})
	p.minPlusSafe = minPlusSafe(slices.Max(maxBits[:chunks]), p.R)
}

// Validate checks the partition invariants: every source element
// appears exactly once, segments are disjoint and vblock-local, and
// rows do not cross PE boundaries.
func (p *IPPartition) Validate(m *matrix.COO) error {
	p.Materialize()
	if len(p.Val) != m.NNZ() {
		return fmt.Errorf("kernels: partition has %d elements, matrix %d", len(p.Val), m.NNZ())
	}
	count := make(map[[2]int32]int, m.NNZ())
	for k := range m.Val {
		count[[2]int32{m.Row[k], m.Col[k]}]++
	}
	for k := range p.Val {
		key := [2]int32{p.Row[k], p.Col[k]}
		count[key]--
		if count[key] < 0 {
			return fmt.Errorf("kernels: element (%d,%d) duplicated or foreign", key[0], key[1])
		}
	}
	for pe, segs := range p.Segs {
		lastVB := int32(-1)
		for _, s := range segs {
			if s.VB <= lastVB {
				return fmt.Errorf("kernels: PE %d segments not vblock-ordered", pe)
			}
			lastVB = s.VB
			if s.Lo < p.PEPtr[pe] || s.Hi > p.PEPtr[pe+1] || s.Lo >= s.Hi {
				return fmt.Errorf("kernels: PE %d segment [%d,%d) outside its range", pe, s.Lo, s.Hi)
			}
			for k := s.Lo; k < s.Hi; k++ {
				if r := p.Row[k]; r < p.RowBounds[pe] || r >= p.RowBounds[pe+1] {
					return fmt.Errorf("kernels: PE %d holds row %d outside [%d,%d)", pe, r, p.RowBounds[pe], p.RowBounds[pe+1])
				}
				if p.VBlockWords > 0 && p.Col[k]/int32(p.VBlockWords) != s.VB {
					return fmt.Errorf("kernels: PE %d vblock %d holds column %d", pe, s.VB, p.Col[k])
				}
			}
		}
	}
	return nil
}

// NNZOfPE returns the number of elements assigned to a PE, the quantity
// the balancing strategy equalizes.
func (p *IPPartition) NNZOfPE(pe int) int {
	return int(p.PEPtr[pe+1] - p.PEPtr[pe])
}

// OPPartition is the preprocessed layout for the OP kernel: each tile
// owns a row partition stored as a tile-local CSC slice (only the rows
// in the tile's range appear in each column). Frontier nonzeros are
// distributed across the tile's PEs dynamically at run time.
type OPPartition struct {
	R, C      int
	Tiles     int
	RowBounds []int32   // per-tile row cuts
	ColPtr    [][]int32 // per tile, length C+1
	Row       [][]int32
	Val       [][]float32

	src         matrix.Store
	mat         sync.Once
	minPlusSafe bool // set by materialize; see minPlusSafe
}

// NewOPPartition builds per-tile CSC slices for the OP kernel from any
// matrix.Store. Only the row cuts are computed here; the tile slices
// are cut lazily on first kernel use, each straight from its own row
// range of the store — no whole-graph column store, compressed or not,
// is ever built or held. The layout (and therefore results and sim
// timings) is byte-identical whatever the resident format was.
func NewOPPartition(m matrix.Store, tiles int, b Balancing) *OPPartition {
	if tiles < 1 {
		panic("kernels: tiles must be >= 1")
	}
	rows, cols := m.Dims()
	return &OPPartition{
		R: rows, C: cols,
		Tiles:     tiles,
		RowBounds: cutRows(m.RowPtr(), rows, tiles, b),
		src:       m,
	}
}

// Materialize cuts the per-tile CSC slices from the row store if that
// has not happened yet. Every kernel entry point calls it; it is
// idempotent and safe for concurrent use.
func (p *OPPartition) Materialize() { p.mat.Do(p.materialize) }

// materialize builds the tiles in parallel. A tile owns a row range, so
// its CSC slice is that range of the row store transposed: one
// DecodeRows pass and a stable counting sort by column. Rows decode
// ascending, so they ascend within each column.
func (p *OPPartition) materialize() {
	p.ColPtr = make([][]int32, p.Tiles)
	p.Row = make([][]int32, p.Tiles)
	p.Val = make([][]float32, p.Tiles)
	maxBits := make([]uint32, p.Tiles) // per worker chunk
	chunks := parallelChunks(p.Tiles, func(c int, tLo, tHi int32) {
		// Scratch for one tile's decoded row range and its per-column
		// fill cursors, reused across the worker's tiles.
		var cRow, cCol []int32
		var cVal []float32
		var mx uint32
		next := make([]int32, p.C)
		for t := tLo; t < tHi; t++ {
			colPtr := make([]int32, p.C+1)
			cRow, cCol, cVal = cRow[:0], cCol[:0], cVal[:0]
			p.src.DecodeRows(p.RowBounds[t], p.RowBounds[t+1], func(row, col int32, val float32) {
				cRow = append(cRow, row)
				cCol = append(cCol, col)
				cVal = append(cVal, val)
				colPtr[col+1]++
				mx = max(mx, math.Float32bits(val))
			})
			for j := 0; j < p.C; j++ {
				colPtr[j+1] += colPtr[j]
			}
			copy(next, colPtr)
			row, val := make([]int32, len(cRow)), make([]float32, len(cRow))
			for k, col := range cCol {
				at := next[col]
				next[col]++
				row[at] = cRow[k]
				val[at] = cVal[k]
			}
			p.ColPtr[t], p.Row[t], p.Val[t] = colPtr, row, val
		}
		maxBits[c] = mx
	})
	p.minPlusSafe = minPlusSafe(slices.Max(maxBits[:chunks]), p.R)
}

// minPlusSafe reports whether a graph whose stored values have maxBits
// as their largest float32 bit pattern keeps SSSP inside the range
// where the native min-ring kernels may run (see MinRingFast): every
// value finite with no sign bit — so no NaN, no ±Inf, no negative and
// no −0 — and n·max finite, so no path sum over at most n edges
// overflows. On that range float32 min is the unsigned min of the bit
// patterns and does not depend on operand order.
func minPlusSafe(maxBits uint32, n int) bool {
	return maxBits < infBits && float64(math.Float32frombits(maxBits))*float64(n) <= math.MaxFloat32
}

// MinRingFast reports whether the native kernels run ring's lanes
// through the min-ring forms — the dense-accumulator push and the
// branch-free pull — on this graph: BFS always (it never reads a
// stored value), SSSP when minPlusSafe holds. Every other ring, and
// SSSP on a graph that fails the check, takes the generic passes. It
// materialises the partition if that has not happened yet.
func (p *OPPartition) MinRingFast(ring *semiring.Semiring) bool {
	switch ring.Kind {
	case semiring.KindBFS:
		return true
	case semiring.KindSSSP:
		p.Materialize()
		return p.minPlusSafe
	}
	return false
}

// Validate checks that the tile slices exactly tile the matrix.
func (p *OPPartition) Validate(m *matrix.CSC) error {
	p.Materialize()
	total := 0
	for t := 0; t < p.Tiles; t++ {
		total += len(p.Val[t])
		for j := 0; j < p.C; j++ {
			for q := p.ColPtr[t][j]; q < p.ColPtr[t][j+1]; q++ {
				r := p.Row[t][q]
				if r < p.RowBounds[t] || r >= p.RowBounds[t+1] {
					return fmt.Errorf("kernels: tile %d column %d holds row %d outside [%d,%d)",
						t, j, r, p.RowBounds[t], p.RowBounds[t+1])
				}
				if q > p.ColPtr[t][j] && p.Row[t][q] <= p.Row[t][q-1] {
					return fmt.Errorf("kernels: tile %d column %d rows not ascending", t, j)
				}
			}
		}
	}
	if total != m.NNZ() {
		return fmt.Errorf("kernels: tile slices hold %d elements, matrix %d", total, m.NNZ())
	}
	return nil
}

// NNZOfTile returns the elements assigned to one tile.
func (p *OPPartition) NNZOfTile(t int) int {
	p.Materialize()
	return len(p.Val[t])
}

// splitEven splits n items into `parts` contiguous chunks whose sizes
// differ by at most one; returns parts+1 boundaries. This is the LCP's
// dynamic distribution of frontier nonzeros to PEs.
func splitEven(n, parts int) []int32 {
	bounds := make([]int32, parts+1)
	for k := 0; k <= parts; k++ {
		bounds[k] = int32(n * k / parts)
	}
	return bounds
}
