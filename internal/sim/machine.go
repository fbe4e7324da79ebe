package sim

// Arena is a bump allocator for the simulated physical address space.
// Kernels allocate one region per data structure (matrix arrays,
// vectors, heaps, staging buffers) so that the cache and channel
// interleaving see realistic, non-aliasing layouts. Addresses are
// byte-granular and block-aligned per allocation.
type Arena struct {
	next       uint64
	blockBytes uint64
}

// NewArena returns an allocator for a machine with the given
// parameters. The first block is skipped so that address 0 never
// appears (the prefetcher uses block 0 as its reset sentinel).
func NewArena(p Params) *Arena {
	return &Arena{next: uint64(p.BlockBytes), blockBytes: uint64(p.BlockBytes)}
}

// Alloc reserves space for n words and returns the base byte address.
func (a *Arena) Alloc(words int) uint64 {
	base := a.next
	bytes := uint64(words) * 4
	blocks := (bytes + a.blockBytes - 1) / a.blockBytes
	a.next += (blocks + 1) * a.blockBytes // one guard block between regions
	return base
}

// Program is the software loaded onto the machine for one kernel
// invocation. PE runs on every processing element; LCP (optional) runs
// on each tile's local control processor after the tile's PEs have
// finished — the store-and-merge model used by the OP kernel's
// writeback stage.
type Program struct {
	PE  func(p *Proc)
	LCP func(p *Proc)
}

// Machine is one configured instance of the Transmuter-style hardware.
// A Machine simulates a single kernel invocation; the CoSPARSE runtime
// constructs a fresh Machine per iteration and accounts reconfiguration
// costs between them.
type Machine struct {
	cfg Config

	// The address interleaving of cfg, derived once so that the access
	// path neither copies the Config nor re-derives bank counts per
	// reference.
	block    divisor // bytes per line
	l1Banks  int     // L1 cache banks per tile; 0 in PS
	l1Pool   divisor // l1Banks, for the shared-mode interleave
	l1Shared bool
	l2Pool   divisor // banks one address interleaves over: the machine's (shared) or a tile's (private)
	l2Shared bool
	spmBanks int // SPM banks per tile; only SCS arbitrates them

	l1      []cacheBank // indexed tile*PEsPerTile + bankInTile (cache banks only)
	l2      []cacheBank // indexed tile*PEsPerTile + bankInTile
	mem     *hbm
	spmFree []int64 // per SPM bank queue (SCS shared SPM)

	stats Stats
}

// divisor divides by a fixed positive n: a shift and a mask when n is a
// power of two, as every Table II dimension is, and a hardware divide
// otherwise.
type divisor struct {
	n     uint64
	shift uint
	pow2  bool
}

func newDivisor(n int) divisor {
	d := divisor{n: uint64(n), pow2: n > 0 && n&(n-1) == 0}
	for d.pow2 && 1<<d.shift < n {
		d.shift++
	}
	return d
}

func (d divisor) div(x uint64) uint64 {
	if d.pow2 {
		return x >> d.shift
	}
	return x / d.n
}

func (d divisor) mod(x uint64) uint64 {
	if d.pow2 {
		return x & (d.n - 1)
	}
	return x % d.n
}

// Stats aggregates event counts across the whole machine. Energy and
// bandwidth figures are derived from these by the power model.
type Stats struct {
	Cycles         int64 // makespan: max agent completion time
	ALUOps         int64
	Loads          int64
	Stores         int64
	L1Hits         int64
	L1Misses       int64
	L2Hits         int64
	L2Misses       int64
	HBMLines       int64 // line fetches (reads) from HBM
	HBMQueued      int64 // cumulative channel queueing delay of reads
	HBMWriteLines  int64 // writeback line transfers to HBM
	HBMWriteQueued int64 // cumulative channel queueing delay of writebacks
	StreamLoads    int64 // loads served by the stream-buffer path
	SPMReads       int64
	SPMWrites      int64
	XbarHops       int64
	StallCycles    int64 // PE cycles spent waiting on memory
	Prefetches     int64
	Writebacks     int64
	ReconfigCycles int64 // charged by the runtime, included in Cycles there
}

// L1HitRate returns hits/(hits+misses) at L1, or 0 with no accesses.
func (s Stats) L1HitRate() float64 {
	if t := s.L1Hits + s.L1Misses; t > 0 {
		return float64(s.L1Hits) / float64(t)
	}
	return 0
}

// L2HitRate returns hits/(hits+misses) at L2, or 0 with no accesses.
func (s Stats) L2HitRate() float64 {
	if t := s.L2Hits + s.L2Misses; t > 0 {
		return float64(s.L2Hits) / float64(t)
	}
	return 0
}

// Add accumulates other into s (used by the runtime to total iterations).
func (s *Stats) Add(o Stats) {
	s.Cycles += o.Cycles
	s.ALUOps += o.ALUOps
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.HBMLines += o.HBMLines
	s.HBMQueued += o.HBMQueued
	s.HBMWriteLines += o.HBMWriteLines
	s.HBMWriteQueued += o.HBMWriteQueued
	s.StreamLoads += o.StreamLoads
	s.SPMReads += o.SPMReads
	s.SPMWrites += o.SPMWrites
	s.XbarHops += o.XbarHops
	s.StallCycles += o.StallCycles
	s.Prefetches += o.Prefetches
	s.Writebacks += o.Writebacks
	s.ReconfigCycles += o.ReconfigCycles
}

// Result of one Machine.Run.
type Result struct {
	Cycles  int64
	Stats   Stats
	EnergyJ float64
	// Balance is mean PE completion time over the makespan (1.0 =
	// perfectly balanced, small = one straggler dominated) — the
	// quantity the §III-B partitioning strategies optimize.
	Balance float64
}

// NewMachine constructs the configured hardware.
func NewMachine(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := cfg.Geometry
	p := cfg.Params
	m := &Machine{
		cfg:      cfg,
		mem:      newHBM(p),
		block:    newDivisor(p.BlockBytes),
		l1Banks:  cfg.L1CacheBanksPerTile(),
		l1Pool:   newDivisor(cfg.L1CacheBanksPerTile()),
		l1Shared: cfg.HW.L1Shared(),
		l2Pool:   newDivisor(g.PEsPerTile),
		l2Shared: cfg.HW.L2Shared(),
		spmBanks: cfg.SPMBanksPerTile(),
	}
	if m.l2Shared {
		m.l2Pool = newDivisor(g.TotalPEs())
	}
	m.l1 = newCacheBanks(g.Tiles*m.l1Banks, p.L1BankBytes, p.L1Assoc, p.BlockBytes)
	m.l2 = newCacheBanks(g.TotalPEs(), p.L2BankBytes, p.L2Assoc, p.BlockBytes)
	m.spmFree = make([]int64, g.Tiles*m.spmBanks)
	return m, nil
}

// MustMachine is NewMachine that panics on error, for tests and
// internal callers with static configurations.
func MustMachine(cfg Config) *Machine {
	m, err := NewMachine(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Proc is the execution context handed to kernel code: one per PE or
// LCP. Kernel code calls Compute/Load/Store/SPM methods to advance its
// local clock; the scheduler interleaves Procs so shared-memory timing
// is honest. Proc methods must only be called from inside the kernel
// function while it owns the scheduler token.
type Proc struct {
	m    *Machine
	id   int // global agent id
	tile int
	pe   int // index within tile; -1 for the LCP

	time  int64
	until int64

	// The kernel runs as a coroutine (pull): next resumes it until it
	// yields or returns, yield hands control back to the scheduler.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	pf       streamPrefetcher
	sbufs    [numStreamBufs]streamBuf
	sbufNext int

	// storeBuf is a ring of the completion times of in-flight stores,
	// oldest at storeHead; its length is the store buffer depth.
	storeBuf  []int64
	storeHead int
	storeLen  int

	// local event counters, summed into Machine.stats when Run ends
	st Stats
}

// Tile returns the tile index of this processor.
func (p *Proc) Tile() int { return p.tile }

// PE returns the PE index within the tile, or -1 for an LCP.
func (p *Proc) PE() int { return p.pe }

// GlobalPE returns the machine-wide PE index (tile*PEsPerTile+pe).
func (p *Proc) GlobalPE() int { return p.tile*p.m.cfg.Geometry.PEsPerTile + p.pe }

// Now returns the processor's local clock in cycles.
func (p *Proc) Now() int64 { return p.time }

// Compute charges n single-cycle ALU/FPU operations (the PEs are
// 1-issue in-order cores, so arithmetic is one op per cycle).
func (p *Proc) Compute(n int) {
	p.time += int64(n)
	p.st.ALUOps += int64(n)
}

// Load issues a blocking word load from the cacheable address space and
// stalls the processor for the full access latency.
func (p *Proc) Load(addr uint64) {
	p.maybeYield()
	lat := p.m.access(p, addr, false)
	p.time += lat
	p.st.Loads++
	p.st.StallCycles += lat - 1
}

// LoadN issues n consecutive word loads starting at addr, a convenience
// for streaming multi-word records (e.g. a COO triple).
func (p *Proc) LoadN(addr uint64, n int) {
	for i := 0; i < n; i++ {
		p.Load(addr + uint64(i*p.m.cfg.Params.WordBytes))
	}
}

// Store issues a word store. Stores retire through a small store
// buffer: the PE is charged one cycle unless the buffer is full, in
// which case it stalls until the oldest store completes.
func (p *Proc) Store(addr uint64) {
	p.maybeYield()
	depth := len(p.storeBuf)
	if p.storeLen >= depth {
		oldest := p.storeBuf[p.storeHead]
		if p.storeHead++; p.storeHead == depth {
			p.storeHead = 0
		}
		p.storeLen--
		if oldest > p.time {
			p.st.StallCycles += oldest - p.time
			p.time = oldest
		}
	}
	lat := p.m.access(p, addr, true)
	tail := p.storeHead + p.storeLen
	if tail >= depth {
		tail -= depth
	}
	p.storeBuf[tail] = p.time + lat
	p.storeLen++
	p.time++
	p.st.Stores++
}

// SPMLoad reads one word from scratchpad. In SCS the offset indexes the
// tile's shared SPM (word-interleaved across the tile's SPM banks,
// arbitrated crossbar); in PS it indexes this PE's private SPM (direct,
// single cycle). Offsets beyond the SPM capacity are the caller's bug.
func (p *Proc) SPMLoad(offsetWords int) {
	p.spmAccess(offsetWords, false)
}

// SPMStore writes one word to scratchpad; see SPMLoad for addressing.
func (p *Proc) SPMStore(offsetWords int) {
	p.spmAccess(offsetWords, true)
}

func (p *Proc) spmAccess(offsetWords int, write bool) {
	p.maybeYield()
	m := p.m
	lat := m.cfg.Params.SPMLatency
	if m.cfg.HW == SCS {
		// Shared SPM: word-interleaved banks behind a word-granular
		// crossbar. Traversal is pipelined; only bank conflicts are
		// charged — this is the "fast random access" property that
		// motivates the configuration (paper, Fig. 3). Writes retire
		// through the store path and only book bank occupancy.
		bank := p.tile*m.spmBanks + offsetWords%m.spmBanks
		start := p.time
		if m.spmFree[bank] > start {
			if !write {
				lat += m.spmFree[bank] - start
			}
			start = m.spmFree[bank]
		}
		m.spmFree[bank] = start + 1
		p.st.XbarHops++
	}
	if write {
		p.time += m.cfg.Params.SPMLatency
		p.st.SPMWrites++
		return
	}
	p.time += lat
	if lat > 1 {
		p.st.StallCycles += lat - 1
	}
	p.st.SPMReads++
}

// access walks the memory hierarchy for the word at addr and returns
// the latency seen by the requesting processor. Cache state, bank
// queues and channel queues are updated as side effects.
func (m *Machine) access(p *Proc, addr uint64, write bool) int64 {
	par := &m.cfg.Params
	t := p.time
	var lat int64

	// ---- L1 ----
	// Hits are pipelined on the in-order PE: the charge is the bank
	// latency plus crossbar arbitration (shared mode) plus any
	// bank-conflict queueing; the crossbar traversal itself overlaps
	// with issue (it still costs energy, counted via XbarHops).
	l1bank := m.l1BankFor(p, addr)
	if l1bank >= 0 {
		b := &m.l1[l1bank]
		laddr := m.l1LocalAddr(addr)
		if m.l1Shared {
			lat += par.XbarArb
		}
		p.st.XbarHops++
		lat += b.occupy(t+lat, 1) + par.L1Latency
		res := b.probe(laddr, t+lat)
		if res.hit {
			p.st.L1Hits++
			if res.readyAt > t+lat {
				// Prefetched line still in flight: wait for the fill
				// and keep the prefetcher chasing ahead of the stream.
				lat = res.readyAt - t
				m.prefetch(p, addr, t+lat, true)
			}
			if write {
				b.markDirty(laddr)
			}
			return lat
		}
		p.st.L1Misses++
		// Miss: fetch from L2 (and below), fill, train the prefetcher.
		fillDone, fromHBM := m.l2Access(p, addr, t+lat)
		b.fill(laddr, res.victim, t+lat, fillDone, write)
		if res.victimDirty {
			m.writebackBelow(p, addr, t+lat)
		}
		m.prefetch(p, addr, t+lat, fromHBM)
		return fillDone - t
	}

	// ---- PS mode or LCP: straight to L2 ----
	fillDone, fromHBM := m.l2Access(p, addr, t)
	m.prefetch(p, addr, t, fromHBM)
	return fillDone - t
}

// l1BankFor returns the global L1 cache bank index serving this
// processor for addr, or -1 if the processor has no L1 cache (PS mode,
// or an LCP, which connects at L2).
func (m *Machine) l1BankFor(p *Proc, addr uint64) int {
	banks := m.l1Banks
	if banks == 0 || p.pe < 0 {
		return -1
	}
	if m.l1Shared {
		return p.tile*banks + int(m.l1Pool.mod(m.block.div(addr)))
	}
	// Private: PE i owns bank i. (In SCS, L1 is shared by definition.)
	if p.pe >= banks {
		return -1
	}
	return p.tile*banks + p.pe
}

// l2Access probes L2 and, on a miss, HBM. Returns the absolute
// completion time of the fill and whether it came from HBM.
func (m *Machine) l2Access(p *Proc, addr uint64, t int64) (int64, bool) {
	par := &m.cfg.Params
	var lat int64
	if m.l2Shared {
		lat += par.XbarArb
	}
	p.st.XbarHops++
	bank := m.l2BankFor(p, addr)
	b := &m.l2[bank]
	laddr := m.l2LocalAddr(addr)
	lat += b.occupy(t+lat, 1) + par.L2Latency
	res := b.probe(laddr, t+lat)
	if res.hit {
		p.st.L2Hits++
		done := t + lat
		if res.readyAt > done {
			done = res.readyAt
		}
		return done, false
	}
	p.st.L2Misses++
	done := m.mem.access(addr, t+lat)
	p.st.HBMLines++
	b.fill(laddr, res.victim, t+lat, done, false)
	if res.victimDirty {
		p.st.Writebacks++
		m.mem.writeLine(addr, t+lat)
	}
	return done, true
}

// l2BankFor maps an address to an L2 bank for this processor's tile in
// private mode, or to the global pool in shared mode.
func (m *Machine) l2BankFor(p *Proc, addr uint64) int {
	return m.l2BankForTile(p.tile, addr)
}

func (m *Machine) l2BankForTile(tile int, addr uint64) int {
	bank := int(m.l2Pool.mod(m.block.div(addr)))
	if m.l2Shared {
		return bank
	}
	return tile*m.cfg.Geometry.PEsPerTile + bank
}

// l1LocalAddr strips the bank-interleave bits from an address before it
// reaches an L1 bank's set index: pooled banks split the block address
// space round-robin, so the per-bank set index must come from the
// quotient or the bank would alias onto a fraction of its sets.
func (m *Machine) l1LocalAddr(addr uint64) uint64 {
	if !m.l1Shared {
		return addr
	}
	return m.l1Pool.div(m.block.div(addr)) * m.block.n
}

// l2LocalAddr strips the L2 pool interleave bits; see l1LocalAddr.
func (m *Machine) l2LocalAddr(addr uint64) uint64 {
	return m.l2Pool.div(m.block.div(addr)) * m.block.n
}

// installStream lands a stream-fetched line in the requesting
// processor's L1 bank, evicting the LRU victim (writeback charged to
// the lower level if dirty). PS mode and LCPs have no L1 to pollute.
func (m *Machine) installStream(p *Proc, addr uint64, ready int64) {
	bank := m.l1BankFor(p, addr)
	if bank < 0 {
		return
	}
	if m.l1[bank].install(m.l1LocalAddr(addr), ready) {
		m.writebackBelow(p, addr, ready)
	}
}

// writebackBelow books the writeback of an evicted dirty L1 line into
// the L2 bank queue (the PE does not wait on it). With the
// non-inclusive hierarchy the line may already have been evicted from
// L2; the dirty data then goes straight to memory rather than
// silently vanishing.
func (m *Machine) writebackBelow(p *Proc, addr uint64, t int64) {
	bank := m.l2BankFor(p, addr)
	m.l2[bank].occupy(t, 1)
	if !m.l2[bank].markDirty(m.l2LocalAddr(addr)) {
		m.mem.writeLineBuffered(addr, t)
	}
	p.st.Writebacks++
}

// flushDirty drains every dirty line still resident in the hierarchy to
// HBM when the program ends: a reconfiguration tears the caches down,
// so modified data that never saw a capacity eviction must still reach
// memory. The drain happens after the makespan — it books HBM write
// traffic but extends no PE's critical path. Bank interleaving strips
// low block bits from the stored tags, so global addresses are
// reconstructed from (tag, bank) — exact for private banks, and
// channel-accurate for pooled ones.
func (m *Machine) flushDirty(t int64) {
	bb := uint64(m.cfg.Params.BlockBytes)
	// L1 dirty lines fold into L2 where resident; the rest of the way
	// down they are memory's problem directly (non-inclusive hierarchy).
	l1banks := uint64(m.l1Banks)
	for bi := range m.l1 {
		b := &m.l1[bi]
		for i := range b.lines {
			l := &b.lines[i]
			if !l.dirty() {
				continue
			}
			l.clean()
			addr := l.block() << b.shift
			if m.l1Shared && l1banks > 0 {
				addr = (addr/bb*l1banks + uint64(bi)%l1banks) * bb
			}
			tile := bi / int(l1banks)
			bank := m.l2BankForTile(tile, addr)
			if !m.l2[bank].markDirty(m.l2LocalAddr(addr)) {
				m.mem.writeLineBuffered(addr, t)
			}
		}
	}
	l2banks := m.l2Pool.n
	for bi := range m.l2 {
		b := &m.l2[bi]
		for i := range b.lines {
			l := &b.lines[i]
			if !l.dirty() {
				continue
			}
			l.clean()
			addr := (l.block()<<b.shift)/bb*l2banks + uint64(bi)%l2banks
			m.mem.writeLineBuffered(addr*bb, t)
		}
	}
}

// prefetch trains the per-processor stride detector with the missed
// block and, once confident, fetches PrefetchDegree lines ahead into
// the processor's cache level without stalling it.
func (m *Machine) prefetch(p *Proc, addr uint64, t int64, fromHBM bool) {
	par := &m.cfg.Params
	if par.PrefetchDegree <= 0 {
		return
	}
	block := m.block.div(addr)
	stride := p.pf.observeMiss(block)
	if stride == 0 {
		return
	}
	if p.pf.issued > int64(par.MSHRs) {
		p.pf.issued = 0 // crude MSHR recycling: allow a new batch
	}
	for i := 1; i <= par.PrefetchDegree; i++ {
		next := int64(block) + stride*int64(i)
		if next <= 0 {
			continue
		}
		naddr := uint64(next) * uint64(par.BlockBytes)
		p.pf.issued++
		p.st.Prefetches++
		l1bank := m.l1BankFor(p, naddr)
		if l1bank >= 0 {
			b := &m.l1[l1bank]
			laddr := m.l1LocalAddr(naddr)
			if b.contains(laddr) {
				continue
			}
			done, _ := m.l2Access(p, naddr, t)
			res := b.probe(laddr, t) // records a miss and picks a victim
			b.fill(laddr, res.victim, t, done, false)
			if res.victimDirty {
				m.writebackBelow(p, naddr, t)
			}
		} else {
			// PS/LCP: prefetch into L2 only.
			bank := m.l2BankFor(p, naddr)
			if !m.l2[bank].contains(m.l2LocalAddr(naddr)) {
				m.l2Access(p, naddr, t)
			}
		}
	}
}

// Run executes the program on every PE (and then each tile's LCP, if
// provided) and returns the aggregate result. Deterministic: identical
// programs and configuration give identical cycle counts.
func (m *Machine) Run(prog Program) Result {
	if prog.PE == nil {
		panic("sim: Program.PE must not be nil")
	}
	g := m.cfg.Geometry
	peEnd := make([]int64, g.Tiles) // max PE end time per tile
	var makespan int64

	procs := m.newProcs(g.TotalPEs())
	for i := range procs {
		procs[i].id, procs[i].tile, procs[i].pe = i, i/g.PEsPerTile, i%g.PEsPerTile
	}
	m.schedule(procs, prog.PE)
	var endSum int64
	for i := range procs {
		p := &procs[i]
		endSum += p.time
		peEnd[p.tile] = max(peEnd[p.tile], p.time)
		makespan = max(makespan, p.time)
		m.stats.Add(p.st)
	}

	if prog.LCP != nil {
		lcps := m.newProcs(g.Tiles)
		for tile := range lcps {
			lp := &lcps[tile]
			lp.id, lp.tile, lp.pe = tile, tile, -1
			lp.time = peEnd[tile] // store-and-merge: LCP starts when its tile's PEs finish
		}
		m.schedule(lcps, prog.LCP)
		for i := range lcps {
			makespan = max(makespan, lcps[i].time)
			m.stats.Add(lcps[i].st)
		}
	}

	m.flushDirty(makespan)

	m.stats.Cycles = makespan
	m.stats.HBMQueued = m.mem.queuedRead
	m.stats.HBMWriteLines = m.mem.writes
	m.stats.HBMWriteQueued = m.mem.queuedWrite
	res := Result{Cycles: makespan, Stats: m.stats}
	res.EnergyJ = Energy(m.cfg, res.Stats)
	if makespan > 0 {
		res.Balance = float64(endSum) / float64(len(procs)) / float64(makespan)
	}
	return res
}
