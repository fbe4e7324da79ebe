package kernels

import (
	"math"
	"testing"
	"testing/quick"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

func cfg(t, p int, hw sim.HWConfig) sim.Config {
	return sim.NewConfig(sim.Geometry{Tiles: t, PEsPerTile: p}, hw)
}

// runIP runs one inner-product SpMV on the simulator: a one-lane
// RunIPMulti.
func runIP(c sim.Config, part *IPPartition, x matrix.Dense, op Operand) (matrix.Dense, sim.Result) {
	outs, res := RunIPMulti(c, part, []matrix.Dense{x}, []Operand{op})
	return outs[0], res
}

func approxEqual(a, b float32) bool {
	if math.IsInf(float64(a), 1) && math.IsInf(float64(b), 1) {
		return true
	}
	d := math.Abs(float64(a - b))
	scale := math.Max(math.Abs(float64(a)), math.Abs(float64(b)))
	return d <= 1e-3*math.Max(scale, 1)
}

// ---------- partitioning ----------

func TestIPPartitionValid(t *testing.T) {
	for _, b := range []Balancing{BalanceNNZ, BalanceRows} {
		for _, vb := range []int{0, 64, 1000} {
			m := gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 1)
			p := NewIPPartition(m, 8, vb, b)
			if err := p.Validate(m); err != nil {
				t.Fatalf("%v vb=%d: %v", b, vb, err)
			}
		}
	}
}

func TestIPPartitionBalancesNNZ(t *testing.T) {
	m := gen.PowerLaw(1000, 20000, 0.6, gen.Pattern, 2)
	bal := NewIPPartition(m, 16, 0, BalanceNNZ)
	naive := NewIPPartition(m, 16, 0, BalanceRows)
	maxOf := func(p *IPPartition) int {
		mx := 0
		for pe := 0; pe < 16; pe++ {
			if n := p.NNZOfPE(pe); n > mx {
				mx = n
			}
		}
		return mx
	}
	if maxOf(bal) >= maxOf(naive) {
		t.Fatalf("balanced max %d not below naive max %d on a skewed matrix", maxOf(bal), maxOf(naive))
	}
	// Balanced partitions should be within ~2x of the ideal share unless
	// single rows dominate.
	ideal := m.NNZ() / 16
	if maxOf(bal) > 3*ideal {
		t.Fatalf("balanced max %d vs ideal %d", maxOf(bal), ideal)
	}
}

func TestIPPartitionMorePEsThanRows(t *testing.T) {
	m := gen.Uniform(8, 30, gen.Pattern, 3)
	p := NewIPPartition(m, 32, 16, BalanceNNZ)
	if err := p.Validate(m); err != nil {
		t.Fatal(err)
	}
	total := 0
	for pe := 0; pe < 32; pe++ {
		total += p.NNZOfPE(pe)
	}
	if total != m.NNZ() {
		t.Fatalf("elements lost: %d vs %d", total, m.NNZ())
	}
}

func TestOPPartitionValid(t *testing.T) {
	m := gen.PowerLaw(400, 5000, 0.5, gen.UniformWeight, 4)
	csc := m.ToCSC()
	for _, b := range []Balancing{BalanceNNZ, BalanceRows} {
		p := NewOPPartition(m, 4, b)
		if err := p.Validate(csc); err != nil {
			t.Fatalf("%v: %v", b, err)
		}
	}
}

func TestOPPartitionBalance(t *testing.T) {
	m := gen.PowerLaw(1000, 20000, 0.6, gen.Pattern, 5)
	bal := NewOPPartition(m, 8, BalanceNNZ)
	naive := NewOPPartition(m, 8, BalanceRows)
	maxOf := func(p *OPPartition) int {
		mx := 0
		for t := 0; t < p.Tiles; t++ {
			if n := p.NNZOfTile(t); n > mx {
				mx = n
			}
		}
		return mx
	}
	if maxOf(bal) >= maxOf(naive) {
		t.Fatalf("balanced tile max %d not below naive %d", maxOf(bal), maxOf(naive))
	}
}

func TestSplitEven(t *testing.T) {
	b := splitEven(10, 4)
	if b[0] != 0 || b[4] != 10 {
		t.Fatalf("bounds %v", b)
	}
	for k := 0; k < 4; k++ {
		sz := b[k+1] - b[k]
		if sz < 2 || sz > 3 {
			t.Fatalf("chunk %d size %d", k, sz)
		}
	}
	if got := splitEven(0, 4); got[4] != 0 {
		t.Fatalf("empty split %v", got)
	}
}

// ---------- functional correctness: IP & OP vs reference ----------

func opFor(ring semiring.Semiring, m *matrix.COO, prev matrix.Dense) Operand {
	op := Operand{Ring: ring, Ctx: semiring.Ctx{Alpha: 0.15, Beta: 0.01, Lambda: 0.05}}
	if ring.NeedsSrcDeg {
		op.Deg = m.OutDegrees()
	}
	if ring.NeedsDstVal {
		op.Prev = prev
	}
	return op
}

// refContrib computes the raw kernel contribution (before merging) for
// a sparse frontier directly from the definition.
func refContrib(m *matrix.COO, f *matrix.SparseVec, op Operand) matrix.Dense {
	out := make(matrix.Dense, m.R)
	touched := make([]bool, m.R)
	x := f.ToDense(op.Ring.Identity)
	active := make([]bool, m.C)
	for _, i := range f.Idx {
		active[i] = true
	}
	for k := range m.Val {
		r, c := m.Row[k], m.Col[k]
		if !active[c] {
			continue
		}
		cand := op.Ring.MatOp(m.Val[k], x[c], op.ctxFor(r, c))
		if touched[r] {
			out[r] = op.Ring.Reduce(out[r], cand)
		} else {
			out[r] = cand
			touched[r] = true
		}
	}
	for i := range out {
		if !touched[i] {
			out[i] = op.Ring.Identity
		}
	}
	return out
}

func TestIPMatchesReferenceAllSemirings(t *testing.T) {
	m := gen.PowerLaw(200, 2000, 0.5, gen.UniformWeight, 7)
	prev := make(matrix.Dense, m.R)
	for i := range prev {
		prev[i] = float32(i%7) + 1
	}
	f := gen.Frontier(m.C, 1.0, 8) // dense frontier: IP sees every column
	for _, ring := range []semiring.Semiring{semiring.SpMV(), semiring.BFS(), semiring.SSSP(), semiring.PR(), semiring.CF()} {
		op := opFor(ring, m, prev)
		want := refContrib(m, f, op)
		c := cfg(2, 4, sim.SC)
		part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
		got, res := runIP(c, part, f.ToDense(ring.Identity), op)
		if res.Cycles <= 0 {
			t.Fatalf("%s: no cycles", ring.Name)
		}
		for i := range want {
			if !approxEqual(want[i], got[i]) {
				t.Fatalf("%s: row %d: want %g got %g", ring.Name, i, want[i], got[i])
			}
		}
	}
}

func TestIPSCSMatchesSC(t *testing.T) {
	m := gen.Uniform(300, 4000, gen.UniformWeight, 9)
	f := gen.Frontier(m.C, 0.5, 10)
	ring := semiring.SpMV()
	op := opFor(ring, m, nil)
	x := f.ToDense(ring.Identity)

	cSC := cfg(2, 4, sim.SC)
	pSC := NewIPPartition(m, cSC.Geometry.TotalPEs(), cSC.SPMWordsPerTile(), BalanceNNZ)
	outSC, _ := runIP(cSC, pSC, x, op)

	cSCS := cfg(2, 4, sim.SCS)
	pSCS := NewIPPartition(m, cSCS.Geometry.TotalPEs(), cSCS.SPMWordsPerTile(), BalanceNNZ)
	outSCS, _ := runIP(cSCS, pSCS, x, op)

	for i := range outSC {
		if !approxEqual(outSC[i], outSCS[i]) {
			t.Fatalf("row %d: SC %g vs SCS %g", i, outSC[i], outSCS[i])
		}
	}
}

func TestOPMatchesReferenceAllSemirings(t *testing.T) {
	m := gen.PowerLaw(200, 2000, 0.5, gen.UniformWeight, 11)
	prev := make(matrix.Dense, m.R)
	for i := range prev {
		prev[i] = float32(i%5) + 2
	}
	f := gen.Frontier(m.C, 0.1, 12)
	for _, ring := range []semiring.Semiring{semiring.SpMV(), semiring.BFS(), semiring.SSSP(), semiring.PR(), semiring.CF()} {
		op := opFor(ring, m, prev)
		want := refContrib(m, f, op)
		for _, hw := range []sim.HWConfig{sim.PC, sim.PS} {
			c := cfg(2, 4, hw)
			part := NewOPPartition(m, c.Geometry.Tiles, BalanceNNZ)
			got, res := RunOP(c, part, f, op)
			if res.Cycles <= 0 {
				t.Fatalf("%s/%v: no cycles", ring.Name, hw)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s/%v: invalid sparse output: %v", ring.Name, hw, err)
			}
			dense := got.ToDense(ring.Identity)
			for i := range want {
				if !approxEqual(want[i], dense[i]) {
					t.Fatalf("%s/%v: row %d: want %g got %g", ring.Name, hw, i, want[i], dense[i])
				}
			}
		}
	}
}

func TestOPSkipsWorkAtLowDensity(t *testing.T) {
	m := gen.Uniform(2000, 40000, gen.Pattern, 13)
	ring := semiring.SpMV()
	op := opFor(ring, m, nil)
	c := cfg(2, 8, sim.PC)
	part := NewOPPartition(m, c.Geometry.Tiles, BalanceNNZ)

	_, sparse := RunOP(c, part, gen.Frontier(m.C, 0.01, 14), op)
	_, denser := RunOP(c, part, gen.Frontier(m.C, 0.2, 14), op)
	if sparse.Cycles*4 > denser.Cycles {
		t.Fatalf("OP cycles did not scale with density: %d (1%%) vs %d (20%%)", sparse.Cycles, denser.Cycles)
	}
}

func TestIPCostIndependentOfDensity(t *testing.T) {
	m := gen.Uniform(2000, 40000, gen.Pattern, 15)
	ring := semiring.SpMV()
	op := opFor(ring, m, nil)
	c := cfg(2, 8, sim.SC)
	part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)

	_, r1 := runIP(c, part, gen.Frontier(m.C, 0.01, 16).ToDense(0), op)
	_, r2 := runIP(c, part, gen.Frontier(m.C, 1.0, 16).ToDense(0), op)
	ratio := float64(r2.Cycles) / float64(r1.Cycles)
	if ratio > 1.3 || ratio < 0.7 {
		t.Fatalf("IP cycles vary with density by %.2fx; it streams the whole matrix either way", ratio)
	}
}

// ---------- merge passes ----------

func TestRunMergeDenseSSSP(t *testing.T) {
	ring := semiring.SSSP()
	inf := ring.Identity
	vals := matrix.Dense{0, inf, 5, 3}
	contrib := matrix.Dense{inf, 2, 7, 1} // row1 improves, row2 worsens (kept), row3 improves
	op := Operand{Ring: ring}
	c := cfg(1, 2, sim.SC)
	newVals, frontier, res := RunMergeDense(c, contrib, vals, op)
	want := matrix.Dense{0, 2, 5, 1}
	for i := range want {
		if newVals[i] != want[i] {
			t.Fatalf("vals[%d] = %g, want %g", i, newVals[i], want[i])
		}
	}
	if frontier == nil || frontier.NNZ() != 2 || frontier.Idx[0] != 1 || frontier.Idx[1] != 3 {
		t.Fatalf("frontier = %+v, want {1,3}", frontier)
	}
	if res.Cycles <= 0 {
		t.Fatal("merge pass charged no cycles")
	}
}

func TestRunMergeDenseBFSOnceOnly(t *testing.T) {
	ring := semiring.BFS()
	inf := ring.Identity
	vals := matrix.Dense{7, inf, inf}
	contrib := matrix.Dense{1, 4, inf} // vertex 0 already settled: must keep 7
	op := Operand{Ring: ring}
	newVals, frontier, _ := RunMergeDense(cfg(1, 2, sim.SC), contrib, vals, op)
	if newVals[0] != 7 {
		t.Fatalf("settled vertex changed: %g", newVals[0])
	}
	if newVals[1] != 4 {
		t.Fatalf("new vertex not set: %g", newVals[1])
	}
	if frontier.NNZ() != 1 || frontier.Idx[0] != 1 {
		t.Fatalf("frontier = %+v", frontier)
	}
}

func TestRunMergeDensePRVecOp(t *testing.T) {
	ring := semiring.PR()
	op := Operand{Ring: ring, Ctx: semiring.Ctx{Alpha: 0.15}}
	vals := matrix.Dense{0.5, 0.5}
	contrib := matrix.Dense{0.2, 0}
	newVals, frontier, _ := RunMergeDense(cfg(1, 2, sim.SC), contrib, vals, op)
	if frontier != nil {
		t.Fatal("PR must keep a dense frontier")
	}
	if !approxEqual(newVals[0], 0.15+0.85*0.2) || !approxEqual(newVals[1], 0.15) {
		t.Fatalf("PR VecOp wrong: %v", newVals)
	}
}

func TestRunScatterMergeMatchesDense(t *testing.T) {
	ring := semiring.SSSP()
	n := 50
	vals := make(matrix.Dense, n)
	for i := range vals {
		vals[i] = float32(10 + i%5)
	}
	sv, err := matrix.NewSparseVec(n, []int32{3, 17, 40}, []float32{1, 99, 2})
	if err != nil {
		t.Fatal(err)
	}
	valsCopy := vals.Clone()
	op := Operand{Ring: ring}
	newVals, frontier, _ := RunScatterMerge(cfg(1, 2, sim.PC), sv, vals, op)
	if newVals[3] != 1 || newVals[40] != 2 {
		t.Fatalf("improvements not applied: %g %g", newVals[3], newVals[40])
	}
	if newVals[17] != valsCopy[17] {
		t.Fatalf("worse contribution overwrote value: %g", newVals[17])
	}
	if frontier.NNZ() != 2 {
		t.Fatalf("frontier = %+v", frontier)
	}
	for i := range newVals {
		if i != 3 && i != 40 && newVals[i] != valsCopy[i] {
			t.Fatalf("untouched vertex %d changed", i)
		}
	}
}

func TestRunFrontierDense(t *testing.T) {
	ring := semiring.SSSP()
	op := Operand{Ring: ring}
	n := 20
	buf := make(matrix.Dense, n)
	for i := range buf {
		buf[i] = ring.Identity
	}
	f1, _ := matrix.NewSparseVec(n, []int32{2, 5}, []float32{1, 2})
	buf, _ = RunFrontierDense(cfg(1, 2, sim.SC), buf, nil, f1, op)
	if buf[2] != 1 || buf[5] != 2 {
		t.Fatal("scatter failed")
	}
	f2, _ := matrix.NewSparseVec(n, []int32{7}, []float32{3})
	buf, res := RunFrontierDense(cfg(1, 2, sim.SC), buf, f1, f2, op)
	if buf[2] != ring.Identity || buf[5] != ring.Identity || buf[7] != 3 {
		t.Fatalf("clear+scatter failed: %v", buf)
	}
	if res.Stats.Stores == 0 {
		t.Fatal("conversion charged no stores")
	}
}

// ---------- heap ----------

func TestSimHeapSortsUnderBothModes(t *testing.T) {
	for _, hw := range []sim.HWConfig{sim.PC, sim.PS} {
		c := cfg(1, 1, hw)
		m := sim.MustMachine(c)
		arena := sim.NewArena(c.Params)
		base := arena.Alloc(4096)
		var got []int32
		m.Run(sim.Program{PE: func(p *sim.Proc) {
			spm := c.SPMWordsPerPE() / heapEntryWords
			h := &opHeap[*sim.Proc]{p: p, spmEntries: spm, base: base}
			seq := []int32{5, 3, 9, 1, 7, 3, 8, 0, 2, 6}
			for _, v := range seq {
				h.push(heapEntry{row: v, cur: v})
			}
			for h.len() > 0 {
				got = append(got, h.popMin().row)
			}
		}})
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				t.Fatalf("%v: heap output not sorted: %v", hw, got)
			}
		}
		if len(got) != 10 {
			t.Fatalf("%v: lost entries: %v", hw, got)
		}
	}
}

func TestSimHeapSpillStillSorts(t *testing.T) {
	// More entries than the SPM can hold: the tail must spill to memory
	// and ordering must survive.
	c := cfg(1, 1, sim.PS)
	m := sim.MustMachine(c)
	arena := sim.NewArena(c.Params)
	base := arena.Alloc(65536)
	n := c.SPMWordsPerPE() // 1024 words -> 512 entries; push 1024
	var got []int32
	m.Run(sim.Program{PE: func(p *sim.Proc) {
		h := &opHeap[*sim.Proc]{p: p, spmEntries: c.SPMWordsPerPE() / heapEntryWords, base: base}
		x := uint64(12345)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.push(heapEntry{row: int32(x % 100000), cur: int32(i)})
		}
		for h.len() > 0 {
			got = append(got, h.popMin().row)
		}
	}})
	if len(got) != n {
		t.Fatalf("lost entries: %d of %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatal("spilled heap output not sorted")
		}
	}
}

// ---------- property-based: IP ≡ OP ≡ reference ----------

func TestQuickIPOPAgree(t *testing.T) {
	f := func(seed uint64, n16, nnz16 uint16, d8 uint8) bool {
		n := 20 + int(n16%200)
		nnz := 1 + int(nnz16)%(4*n)
		density := 0.02 + float64(d8%50)/100
		m := gen.PowerLaw(n, nnz, 0.5, gen.UniformWeight, seed)
		fr := gen.Frontier(n, density, seed+1)
		ring := semiring.SpMV()
		op := Operand{Ring: ring}

		c := cfg(2, 2, sim.SC)
		part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
		ipOut, _ := runIP(c, part, fr.ToDense(0), op)

		co := cfg(2, 2, sim.PC)
		opart := NewOPPartition(m, co.Geometry.Tiles, BalanceNNZ)
		opOut, _ := RunOP(co, opart, fr, op)
		opDense := opOut.ToDense(0)

		want := matrix.RefSpMV(m, fr.ToDense(0))
		for i := range want {
			if !approxEqual(want[i], ipOut[i]) || !approxEqual(want[i], opDense[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ---------- shape checks the figures rely on ----------

func TestOPBeatsIPOnVerySparseFrontier(t *testing.T) {
	m := gen.Uniform(4000, 80000, gen.Pattern, 20)
	ring := semiring.SpMV()
	op := Operand{Ring: ring}
	f := gen.Frontier(m.C, 0.002, 21)

	cIP := cfg(2, 8, sim.SC)
	part := NewIPPartition(m, cIP.Geometry.TotalPEs(), cIP.SPMWordsPerTile(), BalanceNNZ)
	_, rIP := runIP(cIP, part, f.ToDense(0), op)

	cOP := cfg(2, 8, sim.PC)
	opart := NewOPPartition(m, cOP.Geometry.Tiles, BalanceNNZ)
	_, rOP := RunOP(cOP, opart, f, op)

	if rOP.Cycles >= rIP.Cycles {
		t.Fatalf("OP (%d cycles) not faster than IP (%d) at density 0.002", rOP.Cycles, rIP.Cycles)
	}
}

func TestIPBeatsOPOnDenseFrontier(t *testing.T) {
	m := gen.Uniform(4000, 80000, gen.Pattern, 22)
	ring := semiring.SpMV()
	op := Operand{Ring: ring}
	f := gen.Frontier(m.C, 0.5, 23)

	cIP := cfg(2, 8, sim.SC)
	part := NewIPPartition(m, cIP.Geometry.TotalPEs(), cIP.SPMWordsPerTile(), BalanceNNZ)
	_, rIP := runIP(cIP, part, f.ToDense(0), op)

	cOP := cfg(2, 8, sim.PC)
	opart := NewOPPartition(m, cOP.Geometry.Tiles, BalanceNNZ)
	_, rOP := RunOP(cOP, opart, f, op)

	if rIP.Cycles >= rOP.Cycles {
		t.Fatalf("IP (%d cycles) not faster than OP (%d) at density 0.5", rIP.Cycles, rOP.Cycles)
	}
}

func TestBalancingHelpsIPOnPowerLaw(t *testing.T) {
	m := gen.PowerLaw(2000, 40000, 0.7, gen.Pattern, 24)
	ring := semiring.SpMV()
	op := Operand{Ring: ring}
	f := gen.Frontier(m.C, 1.0, 25)
	c := cfg(2, 8, sim.SC)

	bal := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
	_, rBal := runIP(c, bal, f.ToDense(0), op)
	naive := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceRows)
	_, rNaive := runIP(c, naive, f.ToDense(0), op)

	if rBal.Cycles >= rNaive.Cycles {
		t.Fatalf("balancing did not help on a power-law matrix: %d vs %d cycles", rBal.Cycles, rNaive.Cycles)
	}
}

// Property: IP and OP agree under the min-plus (SSSP) semiring too —
// the reduction order independence must hold beyond (+,×).
func TestQuickIPOPAgreeMinPlus(t *testing.T) {
	f := func(seed uint64, n16 uint16, d8 uint8) bool {
		n := 30 + int(n16%150)
		density := 0.05 + float64(d8%40)/100
		m := gen.PowerLaw(n, 6*n, 0.5, gen.UniformWeight, seed)
		fr := gen.Frontier(n, density, seed+1)
		ring := semiring.SSSP()
		prev := make(matrix.Dense, n)
		for i := range prev {
			prev[i] = float32(5 + i%7)
		}
		op := Operand{Ring: ring, Prev: prev}

		c := cfg(2, 2, sim.SC)
		part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
		ipOut, _ := runIP(c, part, fr.ToDense(ring.Identity), op)

		co := cfg(2, 2, sim.PS)
		opart := NewOPPartition(m, co.Geometry.Tiles, BalanceNNZ)
		opOut, _ := RunOP(co, opart, fr, op)
		opDense := opOut.ToDense(ring.Identity)

		want := refContrib(m, fr, op)
		for i := range want {
			if !approxEqual(want[i], ipOut[i]) || !approxEqual(want[i], opDense[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
