package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// opPair is one staged (row, reduced value) element of a sorted OP
// output stream.
type opPair struct {
	row int32
	val float32
}

// opPEAddrs is the simulated address map of one PE's OP column pass.
// The native backend passes the zero value.
type opPEAddrs struct {
	colPtr, row, val uint64 // this tile's CSC slice
	fIdx, fVal       uint64 // shared frontier arrays
	deg, prev        uint64
	heap, staging    uint64 // this PE's heap backing and staging buffer
}

// opPEPass runs one PE's share of the outer-product pass for tile t:
// merge-sort the head elements of the frontier columns [lo, hi) through
// a binary heap (the first spmEntries entries live in the PE's private
// SPM, the rest in cacheable memory), reducing duplicate rows and
// streaming (row, value) pairs into the staging buffer. Returns the
// sorted staged stream. The pass body is shared verbatim by the sim and
// native backends.
func opPEPass[P Probe](p P, part *OPPartition, t int, f *matrix.SparseVec, op *Operand, lo, hi int32, spmEntries int, a opPEAddrs) []opPair {
	colPtr := part.ColPtr[t]
	rows := part.Row[t]
	vals := part.Val[t]

	h := &opHeap[P]{p: p, spmEntries: spmEntries, base: a.heap}

	// Build the sorted list of column heads: every heap entry
	// carries its column's cursor state.
	for k := lo; k < hi; k++ {
		p.LoadStream(a.fIdx + uint64(k)*4)
		j := f.Idx[k]
		p.Load(a.colPtr + uint64(j)*4)
		p.Load(a.colPtr + uint64(j+1)*4)
		start, end := colPtr[j], colPtr[j+1]
		if start == end {
			continue // empty column in this tile's row range
		}
		p.LoadStream(a.fVal + uint64(k)*4)
		fv := f.Val[k]
		if op.Ring.NeedsSrcDeg {
			p.Load(a.deg + uint64(j)*4)
		}
		// Load the head row and seed the sorted list.
		p.Load(a.row + uint64(start)*4)
		h.push(heapEntry{row: rows[start], cur: start, end: end, fval: fv, col: j})
	}

	var staged []opPair
	curRow := int32(-1)
	var acc float32
	nEmitted := 0
	emit := func() {
		if curRow < 0 {
			return
		}
		addr := a.staging + uint64(2*nEmitted)*4
		p.Store(addr)
		p.Store(addr + 4)
		staged = append(staged, opPair{curRow, acc})
		nEmitted++
		curRow = -1
	}

	for h.len() > 0 {
		e := h.popMin()
		// Matrix value for this head element.
		p.Load(a.val + uint64(e.cur)*4)
		mv := vals[e.cur]
		if op.Ring.NeedsDstVal {
			p.Load(a.prev + uint64(e.row)*4)
		}
		p.Compute(op.Ring.MatOpCost)
		cand := op.Ring.MatOp(mv, e.fval, op.ctxFor(e.row, e.col))
		if e.row == curRow {
			p.Compute(op.Ring.ReduceCost)
			acc = op.Ring.Reduce(acc, cand)
		} else {
			emit()
			curRow = e.row
			acc = cand
		}
		// Advance the column cursor and re-insert its new head.
		if e.cur+1 < e.end {
			p.Load(a.row + uint64(e.cur+1)*4)
			h.push(heapEntry{row: rows[e.cur+1], cur: e.cur + 1, end: e.end, fval: e.fval, col: e.col})
		}
	}
	emit()
	return staged
}

// opLCPPass runs one tile's LCP: a P-way tournament merge of the tile's
// sorted PE streams, reducing duplicate rows and writing the tile
// output to main memory. staged and stagingAddr hold the tile's
// pesPerTile streams and their simulated base addresses. Returns the
// tile's sorted output.
func opLCPPass[P Probe](p P, staged [][]opPair, op *Operand, stagingAddr []uint64, outAddr uint64) []opPair {
	pesPerTile := len(staged)
	cursors := make([]int, pesPerTile)
	logP := 1
	for 1<<logP < pesPerTile {
		logP++
	}
	var out []opPair
	curRow := int32(-1)
	var acc float32
	nOut := 0
	flush := func() {
		if curRow < 0 {
			return
		}
		addr := outAddr + uint64(2*nOut)*4
		p.Store(addr)
		p.Store(addr + 4)
		out = append(out, opPair{curRow, acc})
		nOut++
		curRow = -1
	}
	for {
		best := -1
		var bestRow int32
		for pe := 0; pe < pesPerTile; pe++ {
			if cursors[pe] < len(staged[pe]) {
				r := staged[pe][cursors[pe]].row
				if best < 0 || r < bestRow {
					best, bestRow = pe, r
				}
			}
		}
		if best < 0 {
			break
		}
		p.Compute(logP) // tournament comparison
		addr := stagingAddr[best] + uint64(2*cursors[best])*4
		p.LoadStream(addr)
		p.LoadStream(addr + 4)
		e := staged[best][cursors[best]]
		cursors[best]++
		if e.row == curRow {
			p.Compute(op.Ring.ReduceCost)
			acc = op.Ring.Reduce(acc, e.val)
		} else {
			flush()
			curRow = e.row
			acc = e.val
		}
	}
	flush()
	return out
}

// RunOP executes one outer-product SpMV on a fresh machine with the
// given configuration (PC or PS): each tile owns a row partition stored
// as a tile-local CSC slice; the tile's LCP distributes the frontier's
// nonzeros evenly across its PEs (dynamic balancing, §III-B); each PE
// merge-sorts the head elements of its assigned matrix columns through
// a binary heap held in its private SPM (PS) or in cacheable memory
// (PC); merged (row, value) pairs stream into a per-PE staging buffer;
// and the LCP finally merges its PEs' sorted streams and writes the
// tile's output back to main memory (paper Fig. 3, bottom).
//
// Only columns with a corresponding frontier nonzero are touched — the
// work-skipping that makes OP win at low frontier density.
//
// The returned sparse vector holds the reduced contributions per
// destination row, sorted by row; the caller merges it with the
// previous values (see RunScatterMerge).
func RunOP(cfg sim.Config, part *OPPartition, f *matrix.SparseVec, op Operand) (*matrix.SparseVec, sim.Result) {
	if f.N != part.C {
		panic("kernels: RunOP frontier length mismatch")
	}
	part.Materialize()
	m := sim.MustMachine(cfg)
	par := cfg.Params
	arena := sim.NewArena(par)

	tiles := cfg.Geometry.Tiles
	pesPerTile := cfg.Geometry.PEsPerTile
	if tiles != part.Tiles {
		panic("kernels: RunOP partition built for a different tile count")
	}

	// Address map. One CSC slice per tile; shared frontier arrays; a
	// staging buffer and heap/state backing per PE; per-tile output.
	colPtrBase := make([]uint64, tiles)
	rowBase := make([]uint64, tiles)
	valBase := make([]uint64, tiles)
	for t := 0; t < tiles; t++ {
		colPtrBase[t] = arena.Alloc(part.C + 1)
		n := len(part.Row[t])
		if n == 0 {
			n = 1
		}
		rowBase[t] = arena.Alloc(n)
		valBase[t] = arena.Alloc(n)
	}
	fIdxBase := arena.Alloc(f.NNZ() + 1)
	fValBase := arena.Alloc(f.NNZ() + 1)
	var degBase, prevBase uint64
	if op.Ring.NeedsSrcDeg {
		degBase = arena.Alloc(part.C)
	}
	if op.Ring.NeedsDstVal {
		prevBase = arena.Alloc(part.R)
	}
	heapBase := make([]uint64, tiles*pesPerTile)
	stagingBase := make([]uint64, tiles*pesPerTile)
	outBase := make([]uint64, tiles)

	// Dynamic distribution: contiguous chunks of frontier nonzeros per
	// PE (the LCP's run-time assignment).
	peCols := splitEven(f.NNZ(), pesPerTile)
	for t := 0; t < tiles; t++ {
		for pe := 0; pe < pesPerTile; pe++ {
			g := t*pesPerTile + pe
			nCols := int(peCols[pe+1] - peCols[pe])
			if nCols == 0 {
				nCols = 1
			}
			heapBase[g] = arena.Alloc(nCols * heapEntryWords)
			// Worst case: the PE emits every element of its columns.
			cap := 0
			for k := peCols[pe]; k < peCols[pe+1]; k++ {
				j := f.Idx[k]
				cap += int(part.ColPtr[t][j+1] - part.ColPtr[t][j])
			}
			if cap == 0 {
				cap = 1
			}
			stagingBase[g] = arena.Alloc(2 * cap)
		}
		outBase[t] = arena.Alloc(2*(int(part.RowBounds[t+1]-part.RowBounds[t])) + 2)
	}

	// Functional staging output per PE and final per-tile outputs.
	staged := make([][]opPair, tiles*pesPerTile)
	tileOut := make([][]opPair, tiles)

	prog := sim.Program{
		PE: func(p *sim.Proc) {
			t := p.Tile()
			pe := p.PE()
			g := p.GlobalPE()
			lo, hi := peCols[pe], peCols[pe+1]
			if lo >= hi {
				return
			}
			spmEntries := cfg.SPMWordsPerPE() / heapEntryWords
			if cfg.HW != sim.PS {
				spmEntries = 0
			}
			staged[g] = opPEPass(p, part, t, f, &op, lo, hi, spmEntries, opPEAddrs{
				colPtr:  colPtrBase[t],
				row:     rowBase[t],
				val:     valBase[t],
				fIdx:    fIdxBase,
				fVal:    fValBase,
				deg:     degBase,
				prev:    prevBase,
				heap:    heapBase[g],
				staging: stagingBase[g],
			})
		},
		LCP: func(p *sim.Proc) {
			t := p.Tile()
			tileOut[t] = opLCPPass(p,
				staged[t*pesPerTile:(t+1)*pesPerTile], &op,
				stagingBase[t*pesPerTile:(t+1)*pesPerTile], outBase[t])
		},
	}

	res := m.Run(prog)

	// Tiles own ascending disjoint row ranges, so concatenation is the
	// sorted sparse result.
	out := &matrix.SparseVec{N: part.R}
	for t := 0; t < tiles; t++ {
		for _, e := range tileOut[t] {
			out.Idx = append(out.Idx, e.row)
			out.Val = append(out.Val, e.val)
		}
	}
	return out, res
}
