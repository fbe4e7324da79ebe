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
	row := 0
	for k := 1; k < parts; k++ {
		target := nnzTarget(ptr, rows, k, parts)
		for row < rows && int64(ptr[row]) < target {
			row++
		}
		bounds[k] = int32(row)
	}
	return bounds
}

// nnzTarget is the element count BalanceNNZ's k-th cut of parts
// reaches: the cut is the first row whose prefix is at least this.
func nnzTarget(ptr []int32, rows, k, parts int) int64 {
	return int64(ptr[rows]) * int64(k) / int64(parts)
}

// isCut reports whether row is the k-th of the parts cuts cutRows
// picks, without scanning: the first row whose prefix reaches the
// target under BalanceNNZ, rows·k/parts under BalanceRows.
func isCut(ptr []int32, rows, parts, k int, b Balancing, row int32) bool {
	if b == BalanceRows {
		return row == int32(rows*k/parts)
	}
	target := nnzTarget(ptr, rows, k, parts)
	return (int(row) == rows || int64(ptr[row]) >= target) && (row == 0 || int64(ptr[row-1]) < target)
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
	deg         []int32 // set by materialize; see OutDegrees
	minPlusSafe bool    // set by materialize; see minPlusSafe

	runs   runBuckets // cut by buckets on the first PageRank pull
	bucket sync.Once
}

// runBuckets is the native PageRank pull's layout: the IP elements
// with each vblock segment's row runs grouped by length — 1, 2, 3, 4,
// then the longer ones — so that each group is walked as straight-line
// left folds with no branch on the row (see prSegWalk). A row is one
// run per segment (Validate checks that rows ascend), so regrouping a
// segment's runs moves no float operation of any row.
type runBuckets struct {
	// The IP columns regrouped within each segment, which keeps its
	// [Lo, Hi) range: the L=1 group's columns, then L=2's, L=3's, L=4's
	// and the long runs', each group in run order. A column is stored as
	// its offset in the segment's vblock: in 16 bits (col16) where every
	// vblock is at most 1<<16 columns wide (the default 16×16 machine's
	// are 8 192), else in 32 (col32). The other slice is nil.
	col16 []uint16
	col32 []int32
	pe    []peBuckets
}

// runCol is a bucket column's type.
type runCol interface{ uint16 | int32 }

// peBuckets is one PE's share of the run buckets.
type peBuckets struct {
	seg  []runSeg // parallel to the PE's Segs
	row  []int32  // one row id per run, segment by segment, group by group
	long []int32  // the length of each long run, in run order; row and long share one allocation
}

// runSeg is one segment's buckets.
type runSeg struct {
	n         [5]int32 // runs of length 1, 2, 3, 4 and longer
	run, long int32    // the segment's first run in row and first long run in long
}

// longRun is the length from which a run leaves the straight-line
// groups for the long group.
const longRun = 5

// buckets returns the PageRank pull's run buckets, cutting them from
// the materialised IP arrays if that has not happened yet; safe for
// concurrent use. Only a PR or PPR lane (and Validate) reaches it, so
// an engine that never runs them holds nothing extra.
func (p *IPPartition) buckets() *runBuckets {
	p.bucket.Do(p.cutBuckets)
	return &p.runs
}

// vblockBase is the first column of vblock vb.
func (p *IPPartition) vblockBase(vb int32) int32 { return vb * int32(p.VBlockWords) }

// cutBuckets cuts the run buckets with the narrowest columns the
// vblock width allows (see cutRuns).
func (p *IPPartition) cutBuckets() {
	p.Materialize()
	width := p.VBlockWords
	if width <= 0 {
		width = p.C
	}
	if width <= 1<<16 {
		p.runs.col16 = make([]uint16, len(p.Col))
		cutRuns(p, p.runs.col16)
	} else {
		p.runs.col32 = make([]int32, len(p.Col))
		cutRuns(p, p.runs.col32)
	}
}

// cutRuns builds the buckets into col one PE at a time, in parallel.
// For each segment, a branch-free pass over its rows finds the run
// starts, and one pass over the runs files each start under its group,
// the PE's segments one after another; the group counts then size the
// PE's arrays, and each group's runs are copied out in turn, a fixed
// number of columns a run. The scratch is sized by the PE and stays in
// cache.
func cutRuns[C runCol](p *IPPartition, col []C) {
	b := &p.runs
	b.pe = make([]peBuckets, p.NumPEs)
	parallelFor(p.NumPEs, func(lo, hi int32) {
		var starts []int32
		var groups runGroups
		for pe := lo; pe < hi; pe++ {
			segs := p.Segs[pe]
			peLo, peHi := p.PEPtr[pe], p.PEPtr[pe+1]
			n := int(peHi - peLo)
			rows := p.Row[peLo:peHi]
			starts = slices.Grow(starts[:0], n+1)[:n+1]
			groups.reset(n)
			pb := &b.pe[pe]
			pb.seg = make([]runSeg, len(segs))
			for si, s := range segs {
				rs := &pb.seg[si]
				rs.run, rs.long = groups.runs(), groups.k[longRun-1]
				before := groups.k
				groups.file(starts[:runStarts(rows[s.Lo-peLo:s.Hi-peLo], s.Lo-peLo, starts)+1])
				for g := range rs.n {
					rs.n[g] = groups.k[g] - before[g]
				}
			}
			nRuns, nLong := groups.runs(), groups.k[longRun-1]
			buf := make([]int32, nRuns+nLong)
			pb.row, pb.long = buf[:nRuns], buf[nRuns:]
			copy(pb.long, groups.long)
			groups.k = [5]int32{}
			for si, s := range segs {
				emitRuns(&groups, &pb.seg[si].n, rows, p.Col[peLo:peHi], p.vblockBase(s.VB), col[s.Lo:s.Hi], pb.row[pb.seg[si].run:])
			}
		}
	})
}

// runGroups is cutRuns' per-worker scratch for one PE: the start of
// every run, as an offset into the PE's elements, filed under its group
// — the PE's segments one after another within each group — and each
// long run's length.
type runGroups struct {
	start [5][]int32
	long  []int32
	k     [5]int32 // runs filed (then emitted) per group
}

// reset sizes the scratch for a PE of n elements: a group of runs of L
// or more elements holds at most n/L of them, and long one spare word.
func (r *runGroups) reset(n int) {
	for g := range r.start {
		r.start[g] = slices.Grow(r.start[g][:0], n/(g+1))[:n/(g+1)]
	}
	r.long = slices.Grow(r.long[:0], n/longRun+1)[:n/longRun+1]
	r.k = [5]int32{}
}

func (r *runGroups) runs() int32 { return r.k[0] + r.k[1] + r.k[2] + r.k[3] + r.k[4] }

// file files one segment's runs, from their starts st (its end last).
// Every run's length goes to the next long slot, which only a long run
// keeps, so nothing branches on the group.
func (r *runGroups) file(st []int32) {
	k, start, long := r.k, &r.start, r.long
	for i := 1; i < len(st); i++ {
		a, l := st[i-1], st[i]-st[i-1]
		g := min(l, longRun) - 1
		start[g][k[g]] = a
		long[k[longRun-1]] = l
		k[g]++
	}
	r.k = k
}

// emitRuns copies out one segment's runs, group by group, from the
// next n[g] starts of each group: each run's columns, less base (the
// segment's vblock's first column), to col, which starts at the
// segment's first element, and its row id to row, which starts at the
// segment's first run.
func emitRuns[C runCol](r *runGroups, n *[5]int32, rowOf, colOf []int32, base int32, col []C, row []int32) {
	d, q := 0, 0
	next := func(g int) []int32 {
		s := r.start[g][r.k[g] : r.k[g]+n[g]]
		r.k[g] += n[g]
		return s
	}
	for _, a := range next(0) {
		col[d], row[q] = C(colOf[a]-base), rowOf[a]
		d, q = d+1, q+1
	}
	for _, a := range next(1) {
		s, t := (*[2]int32)(colOf[a:]), (*[2]C)(col[d:])
		t[0], t[1] = C(s[0]-base), C(s[1]-base)
		row[q] = rowOf[a]
		d, q = d+2, q+1
	}
	for _, a := range next(2) {
		s, t := (*[3]int32)(colOf[a:]), (*[3]C)(col[d:])
		t[0], t[1], t[2] = C(s[0]-base), C(s[1]-base), C(s[2]-base)
		row[q] = rowOf[a]
		d, q = d+3, q+1
	}
	for _, a := range next(3) {
		s, t := (*[4]int32)(colOf[a:]), (*[4]C)(col[d:])
		t[0], t[1], t[2], t[3] = C(s[0]-base), C(s[1]-base), C(s[2]-base), C(s[3]-base)
		row[q] = rowOf[a]
		d, q = d+4, q+1
	}
	long := r.long[r.k[longRun-1]:]
	for i, a := range next(longRun - 1) {
		l := int(long[i])
		for j, c := range colOf[a : int(a)+l] {
			col[d+j] = C(c - base)
		}
		row[q] = rowOf[a]
		d, q = d+l, q+1
	}
}

// runStarts writes the run starts of a segment's rows, which begin at
// the PE's element lo, to st, then the segment's end, and returns the number of
// runs. st holds len(rows)+1 words. Run detection is branch-free.
func runStarts(rows []int32, lo int32, st []int32) int {
	st = st[:len(rows)+1]
	st[0] = lo
	runs := 1
	for k := 1; k < len(rows); k++ {
		st[runs] = lo + int32(k)
		runs += changed(rows[k], rows[k-1])
	}
	st[runs] = lo + int32(len(rows))
	return runs
}

// changed is 1 if a != b, else 0, with no branch: a^b is nonzero
// exactly when they differ, and so then has the sign bit of x|−x.
func changed(a, b int32) int {
	d := a ^ b
	return int(uint32(d|-d) >> 31)
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
	return newIPPartition(m, m.RowPtr(), totalPEs, vblockWords, b)
}

// newIPPartition is NewIPPartition over m's row prefix ptr.
func newIPPartition(m matrix.Store, ptr []int32, totalPEs, vblockWords int, b Balancing) *IPPartition {
	if totalPEs < 1 {
		panic("kernels: totalPEs must be >= 1")
	}
	rows, cols := m.Dims()
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
// workers ran. Each worker counts the columns it places into its own
// degree array; the arrays are summed at the end.
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
	type chunk struct {
		maxBits uint32
		deg     []int32
	}
	chunks := parallelChunks(p.NumPEs, func(peLo, peHi int32) chunk {
		// Scratch for one PE's decoded row chunk, reused across the
		// worker's PEs.
		var cRow, cCol []int32
		var cVal []float32
		var mx uint32
		deg := make([]int32, p.C)
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
				deg[col]++
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
		return chunk{mx, deg}
	})
	p.deg = chunks[0].deg
	mx := chunks[0].maxBits
	for _, c := range chunks[1:] {
		for j, d := range c.deg {
			p.deg[j] += d
		}
		mx = max(mx, c.maxBits)
	}
	p.minPlusSafe = minPlusSafe(mx, p.R)
}

// OutDegrees returns the out-degree of every source vertex (stored
// elements per column), counted while the partition materialises — the
// same vector matrix.OutDegreesOf decodes the store for. It
// materialises the partition if that has not happened yet; callers
// must not mutate the slice.
func (p *IPPartition) OutDegrees() []int32 {
	p.Materialize()
	return p.deg
}

// Validate checks the partition invariants: every source element
// appears exactly once, segments are disjoint and vblock-local, rows
// ascend within each segment (the simulator's row runs and the run
// buckets take each row to be one run there), and rows do not cross PE
// boundaries. It then cuts the run buckets, if that has not happened
// yet, and checks them (see validateBuckets).
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
				if k > s.Lo && p.Row[k] < p.Row[k-1] {
					return fmt.Errorf("kernels: PE %d vblock %d row %d follows row %d", pe, s.VB, p.Row[k], p.Row[k-1])
				}
				if r := p.Row[k]; r < p.RowBounds[pe] || r >= p.RowBounds[pe+1] {
					return fmt.Errorf("kernels: PE %d holds row %d outside [%d,%d)", pe, r, p.RowBounds[pe], p.RowBounds[pe+1])
				}
				if p.VBlockWords > 0 && p.Col[k]/int32(p.VBlockWords) != s.VB {
					return fmt.Errorf("kernels: PE %d vblock %d holds column %d", pe, s.VB, p.Col[k])
				}
			}
		}
	}
	return p.validateBuckets()
}

// validateBuckets checks the run buckets against the IP arrays: each
// segment's counts and long runs use up exactly its elements and its
// share of the PE's arrays, group L holds runs of exactly L elements
// and the long group runs of more than 4, no row has two runs in one
// segment, and each run's columns are its row's elements in that
// segment, in order — so the bucket columns are a permutation of the
// segment's elements that keeps every row's fold.
func (p *IPPartition) validateBuckets() error {
	b := p.buckets()
	if len(b.col16)+len(b.col32) != len(p.Col) {
		return fmt.Errorf("kernels: run buckets hold %d+%d columns for %d elements", len(b.col16), len(b.col32), len(p.Col))
	}
	for pe, segs := range p.Segs {
		pb := b.pe[pe]
		if len(pb.seg) != len(segs) {
			return fmt.Errorf("kernels: PE %d has buckets for %d of its %d segments", pe, len(pb.seg), len(segs))
		}
		var run, long int32
		for si, s := range segs {
			rs := pb.seg[si]
			n := rs.n
			if rs.run != run || rs.long != long || run+n[0]+n[1]+n[2]+n[3]+n[4] > int32(len(pb.row)) || long+n[4] > int32(len(pb.long)) {
				return fmt.Errorf("kernels: PE %d vblock %d buckets %+v do not follow on at run %d, long run %d", pe, s.VB, rs, run, long)
			}
			at := s.Lo
			seen := make(map[int32]bool)
			for g, runs := range n {
				for range runs {
					row, l := pb.row[run], int32(g+1)
					run++
					if g == longRun-1 {
						if l = pb.long[long]; l < longRun {
							return fmt.Errorf("kernels: PE %d vblock %d long run of row %d holds %d elements", pe, s.VB, row, l)
						}
						long++
					}
					if seen[row] {
						return fmt.Errorf("kernels: PE %d vblock %d row %d has two runs", pe, s.VB, row)
					}
					seen[row] = true
					if at+l > s.Hi {
						return fmt.Errorf("kernels: PE %d vblock %d buckets hold more than its %d elements", pe, s.VB, s.Hi-s.Lo)
					}
					first, _ := slices.BinarySearch(p.Row[s.Lo:s.Hi], row)
					lo, hi := s.Lo+int32(first), s.Lo+int32(first)
					for hi < s.Hi && p.Row[hi] == row {
						hi++
					}
					if got := b.columns(at, at+l, p.vblockBase(s.VB)); !slices.Equal(got, p.Col[lo:hi]) {
						return fmt.Errorf("kernels: PE %d vblock %d row %d run in group %d holds columns %v, want %v",
							pe, s.VB, row, g+1, got, p.Col[lo:hi])
					}
					at += l
				}
			}
			if at != s.Hi {
				return fmt.Errorf("kernels: PE %d vblock %d buckets hold %d of its %d elements", pe, s.VB, at-s.Lo, s.Hi-s.Lo)
			}
		}
		if run != int32(len(pb.row)) || long != int32(len(pb.long)) {
			return fmt.Errorf("kernels: PE %d segments use %d of its %d runs and %d of its %d long runs", pe, run, len(pb.row), long, len(pb.long))
		}
	}
	return nil
}

// columns returns the bucket columns [lo, hi) of a segment whose
// vblock starts at column base, as graph columns.
func (b *runBuckets) columns(lo, hi, base int32) []int32 {
	if b.col32 != nil {
		return widen(b.col32[lo:hi], base)
	}
	return widen(b.col16[lo:hi], base)
}

func widen[C runCol](cs []C, base int32) []int32 {
	out := make([]int32, len(cs))
	for i, c := range cs {
		out[i] = int32(c) + base
	}
	return out
}

// NNZOfPE returns the number of elements assigned to a PE, the quantity
// the balancing strategy equalizes.
func (p *IPPartition) NNZOfPE(pe int) int {
	return int(p.PEPtr[pe+1] - p.PEPtr[pe])
}

// OPPartition is the preprocessed layout for the OP kernel, in two
// forms cut lazily from an IP partition's materialised arrays — the
// paper keeps both dataflows' layouts resident (§III-D2), and the OP
// elements are the IP elements transposed. The simulator's passes and
// every NativeOPMulti lane read the tiles: each tile owns a row
// partition stored as a tile-local CSC slice (only the rows in the
// tile's range appear in each column), its frontier nonzeros
// distributed across the tile's PEs at run time. The native min-ring
// push (NativePushMerge) reads the column index instead: the
// whole-graph CSC, which is the one-tile layout. Each form is cut on
// its first reader, so an engine that runs only BFS, SSSP and PageRank
// natively never cuts the tiles.
type OPPartition struct {
	R, C      int
	Tiles     int
	RowBounds []int32   // per-tile row cuts
	ColPtr    [][]int32 // per tile, length C+1; nil until Materialize
	Row       [][]int32
	Val       [][]float32

	ip  *IPPartition // both forms are cut from its arrays
	mat sync.Once

	cols colIndex
	cut  sync.Once
}

// colIndex is the whole-graph CSC: column j's rows, ascending, are
// row[ptr[j]:ptr[j+1]], with their values alongside.
type colIndex struct {
	ptr, row []int32
	val      []float32
}

// NewOPPartition builds the OP layouts from any matrix.Store, for
// callers without an IP layout of their own: the OP half of
// NewPartitions(m, tiles, 1, 0, b). One PE per tile and no vblocks cut
// the IP rows exactly where the tiles are cut, so each tile is its
// PE's elements transposed. Only the row cuts are computed here; the
// store is decoded on first kernel use.
func NewOPPartition(m matrix.Store, tiles int, b Balancing) *OPPartition {
	_, op := NewPartitions(m, tiles, 1, 0, b)
	return op
}

// NewPartitions builds both layouts an engine holds for a machine of
// tiles×pesPerTile PEs: the IP partition, and an OP partition whose
// tiles and column index are cut from the IP partition's materialised
// arrays, so the two together decode m once. Tile t owns the IP PEs
// [t·P, (t+1)·P), P = pesPerTile: the k-th of n cuts is a function of
// x·k/n (x the nnz or the rows, by balancing), and x·tP/(tiles·P) =
// x·t/tiles, so every P-th PE cut is the tile cut cutRows picks for
// tiles parts — which this constructor checks. The IP partition is
// NewIPPartition's, and the tiles depend on neither pesPerTile nor the
// vblock width.
func NewPartitions(m matrix.Store, tiles, pesPerTile, vblockWords int, b Balancing) (*IPPartition, *OPPartition) {
	if tiles < 1 || pesPerTile < 1 {
		panic("kernels: tiles and pesPerTile must be >= 1")
	}
	ptr := m.RowPtr()
	ip := newIPPartition(m, ptr, tiles*pesPerTile, vblockWords, b)
	bounds := make([]int32, tiles+1)
	for t := range bounds {
		bounds[t] = ip.RowBounds[t*pesPerTile]
		if t > 0 && t < tiles && !isCut(ptr, ip.R, tiles, t, b, bounds[t]) {
			panic(fmt.Sprintf("kernels: PE cut %d is not tile cut %d", t*pesPerTile, t))
		}
	}
	return ip, &OPPartition{
		R: ip.R, C: ip.C,
		Tiles:     tiles,
		RowBounds: bounds,
		ip:        ip,
	}
}

// Materialize cuts the per-tile CSC slices if that has not happened
// yet. Every pass that reads the tiles calls it; it is idempotent and
// safe for concurrent use.
func (p *OPPartition) Materialize() { p.mat.Do(p.materialize) }

// materialize builds the tiles in parallel. A tile owns a row range, so
// its CSC slice is that range transposed: placeTile over the tile's
// PEs' contiguous element range of the IP arrays, vblock by vblock
// within a PE. A column lies in one vblock, so its elements still
// arrive in store order (rows ascending, PE after PE).
func (p *OPPartition) materialize() {
	ip := p.ip
	ip.Materialize()
	p.ColPtr = make([][]int32, p.Tiles)
	p.Row = make([][]int32, p.Tiles)
	p.Val = make([][]float32, p.Tiles)
	per := int32(ip.NumPEs / p.Tiles)
	parallelFor(p.Tiles, func(tLo, tHi int32) {
		next := make([]int32, p.C)
		for t := tLo; t < tHi; t++ {
			lo, hi := ip.PEPtr[t*per], ip.PEPtr[(t+1)*per]
			p.ColPtr[t], p.Row[t], p.Val[t] = placeTile(p.C, next, ip.Row[lo:hi], ip.Col[lo:hi], ip.Val[lo:hi])
		}
	})
}

// columns returns the column index, cutting it from the IP arrays if
// that has not happened yet; safe for concurrent use. It is the
// one-tile layout, but needs no counting pass — a column's length is
// its out-degree, counted while the IP partition materialised — and it
// is placed vblock by vblock in parallel: a vblock's elements sit in
// one segment per PE, its columns own one contiguous run of the index,
// and a run that small stays in cache where a scatter over the whole
// index would miss on nearly every element. PE after PE, each segment
// row-major, every column's rows arrive ascending, as in the tiles.
func (p *OPPartition) columns() *colIndex {
	p.cut.Do(func() {
		ip, c := p.ip, &p.cols
		deg := ip.OutDegrees()
		c.ptr = make([]int32, p.C+1)
		for j, d := range deg {
			c.ptr[j+1] = c.ptr[j] + d
		}
		c.row, c.val = make([]int32, len(ip.Row)), make([]float32, len(ip.Row))
		width := p.C
		if ip.VBlockWords > 0 {
			width = ip.VBlockWords
		}
		parallelFor(ip.NumVBlocks, func(vLo, vHi int32) {
			next := make([]int32, width)
			for v := vLo; v < vHi; v++ {
				lo := v * int32(width)
				copy(next, c.ptr[lo:])
				for _, segs := range ip.Segs {
					i, ok := slices.BinarySearchFunc(segs, v, func(s Seg, v int32) int { return int(s.VB - v) })
					if !ok {
						continue
					}
					for k := segs[i].Lo; k < segs[i].Hi; k++ {
						at := &next[ip.Col[k]-lo]
						c.row[*at], c.val[*at] = ip.Row[k], ip.Val[k]
						*at++
					}
				}
			}
		})
	})
	return &p.cols
}

// placeTile transposes one tile's elements into its CSC slice of c
// columns with a stable counting sort by column, so each column keeps
// the order its elements arrive in. next is c words of scratch.
func placeTile(c int, next, rows, cols []int32, vals []float32) (colPtr, row []int32, val []float32) {
	colPtr = make([]int32, c+1)
	for _, col := range cols {
		colPtr[col+1]++
	}
	for j := 0; j < c; j++ {
		colPtr[j+1] += colPtr[j]
	}
	copy(next, colPtr)
	row, val = make([]int32, len(rows)), make([]float32, len(rows))
	for k, col := range cols {
		at := next[col]
		next[col]++
		row[at] = rows[k]
		val[at] = vals[k]
	}
	return colPtr, row, val
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
// through the min-ring forms — the fused CAS-min push over the column
// index and the flat pull — on this graph: BFS always (it never reads
// a stored value), SSSP when the IP partition's minPlusSafe holds.
// Every other ring, and SSSP on a graph that fails the check, takes
// the generic passes. For SSSP it materialises the IP partition, if
// that has not happened yet.
func (p *OPPartition) MinRingFast(ring *semiring.Semiring) bool {
	switch ring.Kind {
	case semiring.KindBFS:
		return true
	case semiring.KindSSSP:
		p.ip.Materialize()
		return p.ip.minPlusSafe
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
