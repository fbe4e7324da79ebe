package sim

import (
	"runtime"
	"strings"
	"testing"
)

func cfg2x4(hw HWConfig) Config {
	return NewConfig(Geometry{Tiles: 2, PEsPerTile: 4}, hw)
}

func TestConfigValidate(t *testing.T) {
	if err := cfg2x4(SC).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg2x4(SC)
	bad.Geometry.Tiles = 0
	if err := bad.Validate(); err == nil {
		t.Error("accepted zero tiles")
	}
	bad2 := cfg2x4(SC)
	bad2.Params.BlockBytes = 60
	if err := bad2.Validate(); err == nil {
		t.Error("accepted non-power block size misaligned with banks")
	}
	bad3 := cfg2x4(SC)
	bad3.HW = HWConfig(9)
	if err := bad3.Validate(); err == nil {
		t.Error("accepted unknown HW config")
	}
}

func TestHWConfigProperties(t *testing.T) {
	cases := []struct {
		hw               HWConfig
		l1s, l2s, spm    bool
		cacheBanks, spmB int // per tile for 4 PEs/tile
	}{
		{SC, true, true, false, 4, 0},
		{SCS, true, true, true, 2, 2},
		{PC, false, false, false, 4, 0},
		{PS, false, false, true, 0, 4},
	}
	for _, c := range cases {
		if c.hw.L1Shared() != c.l1s || c.hw.L2Shared() != c.l2s || c.hw.HasSPM() != c.spm {
			t.Errorf("%v: sharing flags wrong", c.hw)
		}
		cfg := cfg2x4(c.hw)
		if got := cfg.L1CacheBanksPerTile(); got != c.cacheBanks {
			t.Errorf("%v: cache banks %d, want %d", c.hw, got, c.cacheBanks)
		}
		if got := cfg.SPMBanksPerTile(); got != c.spmB {
			t.Errorf("%v: SPM banks %d, want %d", c.hw, got, c.spmB)
		}
	}
	if s := SCS.String(); s != "SCS" {
		t.Errorf("String = %q", s)
	}
}

func TestSPMCapacity(t *testing.T) {
	cfg := cfg2x4(SCS)
	// 2 SPM banks × 4096 B / 4 B = 2048 words.
	if got := cfg.SPMWordsPerTile(); got != 2048 {
		t.Fatalf("SCS SPM words/tile = %d, want 2048", got)
	}
	ps := cfg2x4(PS)
	if got := ps.SPMWordsPerPE(); got != 1024 {
		t.Fatalf("PS SPM words/PE = %d, want 1024", got)
	}
	if got := cfg.SPMWordsPerPE(); got != 0 {
		t.Fatalf("SCS SPM words/PE = %d, want 0 (shared)", got)
	}
}

func TestCacheBankBasics(t *testing.T) {
	b := newCacheBank(4096, 4, 64)
	if b.sets.n != 16 || b.ways != 4 {
		t.Fatalf("geometry %dx%d, want 16x4", b.sets.n, b.ways)
	}
	// First access misses, second to the same block hits.
	r := b.probe(0x1000, 1)
	if r.hit {
		t.Fatal("cold cache hit")
	}
	b.fill(0x1000, r.victim, 1, 1, false)
	if r2 := b.probe(0x1000, 2); !r2.hit {
		t.Fatal("fill did not stick")
	}
	// A different word in the same 64 B block also hits.
	if r3 := b.probe(0x1020, 3); !r3.hit {
		t.Fatal("same-block access missed")
	}
	if b.hits != 2 || b.misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 2/1", b.hits, b.misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	b := newCacheBank(4096, 4, 64)
	// Fill one set with 4 conflicting blocks. Set stride = 16 sets × 64 B.
	const setStride = 16 * 64
	now := int64(0)
	for i := 0; i < 4; i++ {
		now++
		addr := uint64(i * setStride)
		r := b.probe(addr, now)
		if r.hit {
			t.Fatalf("unexpected hit for block %d", i)
		}
		b.fill(addr, r.victim, now, now, false)
	}
	// Touch block 0 to make block 1 the LRU victim.
	now++
	if r := b.probe(0, now); !r.hit {
		t.Fatal("block 0 evicted prematurely")
	}
	now++
	r := b.probe(uint64(4*setStride), now)
	if r.hit {
		t.Fatal("conflict miss expected")
	}
	b.fill(uint64(4*setStride), r.victim, now, now, false)
	now++
	if r := b.probe(uint64(1*setStride), now); r.hit {
		t.Fatal("LRU (block 1) should have been the victim")
	}
	if r := b.probe(0, now); !r.hit {
		t.Fatal("MRU block 0 must survive")
	}
}

func TestCacheAccountingInvariant(t *testing.T) {
	b := newCacheBank(4096, 4, 64)
	probes := int64(0)
	for i := 0; i < 1000; i++ {
		addr := uint64((i * 7919) % 16384)
		r := b.probe(addr, int64(i))
		probes++
		if !r.hit {
			b.fill(addr, r.victim, int64(i), int64(i), false)
		}
	}
	if b.hits+b.misses != probes {
		t.Fatalf("hits %d + misses %d != probes %d", b.hits, b.misses, probes)
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	b := newCacheBank(256, 1, 64) // 4 sets, direct-mapped: easy conflicts
	r := b.probe(0, 1)
	b.fill(0, r.victim, 1, 1, false)
	b.markDirty(0)
	// Conflicting block in the same set evicts the dirty line.
	r2 := b.probe(4*64, 2)
	if r2.hit {
		t.Fatal("expected conflict miss")
	}
	if !r2.victimDirty {
		t.Fatal("victim should be dirty")
	}
	b.fill(4*64, r2.victim, 2, 2, false)
	if b.wbacks != 1 {
		t.Fatalf("writebacks = %d, want 1", b.wbacks)
	}
}

func TestStreamPrefetcher(t *testing.T) {
	var p streamPrefetcher
	if s := p.observeMiss(10); s != 0 {
		t.Fatalf("first miss prefetched with stride %d", s)
	}
	if s := p.observeMiss(11); s != 0 {
		t.Fatalf("stride not yet confirmed, got %d", s)
	}
	if s := p.observeMiss(12); s != 1 {
		t.Fatalf("confirmed stride = %d, want 1", s)
	}
	// Skipping ahead within the window (as happens when its own
	// prefetches absorb the intermediate misses) keeps confidence.
	if s := p.observeMiss(16); s != 1 {
		t.Fatalf("in-window jump lost the stream, got %d", s)
	}
	// A far jump allocates a new stream without prefetching.
	if s := p.observeMiss(1000); s != 0 {
		t.Fatalf("far jump should not prefetch, got %d", s)
	}
	// ...and does not disturb the original stream.
	if s := p.observeMiss(18); s != 1 {
		t.Fatalf("original stream lost after far jump, got %d", s)
	}
}

func TestStreamPrefetcherInterleavedStreams(t *testing.T) {
	// Matrix stream (sequential) interleaved with random gathers: the
	// sequential stream must stay trained — the property the IP kernel
	// depends on.
	var p streamPrefetcher
	rnd := uint64(999999)
	prefetches := 0
	for i := uint64(0); i < 50; i++ {
		if s := p.observeMiss(100 + i); s != 0 {
			prefetches++
		}
		rnd = rnd*6364136223846793005 + 1442695040888963407
		p.observeMiss(1 << 20 >> 1 * (2 + rnd%64)) // far, scattered
	}
	if prefetches < 40 {
		t.Fatalf("sequential stream trained only %d/50 times under interleaving", prefetches)
	}
}

func TestStreamPrefetcherDescending(t *testing.T) {
	var p streamPrefetcher
	p.observeMiss(1000)
	p.observeMiss(999)
	if s := p.observeMiss(998); s != -1 {
		t.Fatalf("descending stream stride = %d, want -1", s)
	}
}

func TestHBMChannelQueuing(t *testing.T) {
	p := DefaultParams()
	h := newHBM(p)
	// Two back-to-back accesses to the same channel: the second queues.
	a1 := h.access(0, 0)
	a2 := h.access(0, 0)
	if a1 != p.HBMBaseLatency+p.HBMLineOccupied {
		t.Fatalf("first access latency %d", a1)
	}
	if a2 != a1+p.HBMLineOccupied {
		t.Fatalf("second access completion %d, want %d", a2, a1+p.HBMLineOccupied)
	}
	// Different channels do not interfere.
	a3 := h.access(uint64(p.BlockBytes), 0)
	if a3 != a1 {
		t.Fatalf("different channel delayed: %d vs %d", a3, a1)
	}
	if h.reads != 3 {
		t.Fatalf("read count %d", h.reads)
	}
	// Only the second access waited, for exactly one line occupancy.
	if h.queuedRead != p.HBMLineOccupied {
		t.Fatalf("queued read cycles %d, want %d", h.queuedRead, p.HBMLineOccupied)
	}
}

func TestHBMWriteAccounting(t *testing.T) {
	p := DefaultParams()
	h := newHBM(p)
	// A read occupies the channel; a writeback issued at the same time
	// must queue behind it, and the delay lands in queuedWrite.
	h.access(0, 0)
	h.writeLine(0, 0)
	if h.reads != 1 || h.writes != 1 {
		t.Fatalf("reads=%d writes=%d, want 1/1", h.reads, h.writes)
	}
	if h.queuedWrite != p.HBMLineOccupied {
		t.Fatalf("queued write cycles %d, want %d", h.queuedWrite, p.HBMLineOccupied)
	}
	if h.queuedRead != 0 {
		t.Fatalf("queued read cycles %d, want 0", h.queuedRead)
	}
	// The writeback extended channel occupancy: the next read queues
	// behind both transfers.
	a3 := h.access(0, 0)
	if a3 != 2*p.HBMLineOccupied+p.HBMBaseLatency+p.HBMLineOccupied {
		t.Fatalf("read after writeback completed at %d", a3)
	}
}

func TestDirtyEvictionsReportWriteLines(t *testing.T) {
	// Sweeping stores across a region far larger than the L2 must evict
	// dirty lines, and every dirty victim is a real HBM write transfer —
	// visible in the split write counters, distinct from the read side.
	m := MustMachine(cfg2x4(PC))
	arena := NewArena(m.Config().Params)
	base := arena.Alloc(1 << 19)
	res := m.Run(Program{PE: func(p *Proc) {
		if p.GlobalPE() != 0 {
			return
		}
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 1<<19; i += 64 {
				p.Store(base + uint64(i))
			}
		}
	}})
	s := res.Stats
	if s.HBMWriteLines == 0 {
		t.Fatal("dirty L2 evictions produced no HBM write lines")
	}
	if s.HBMLines == 0 {
		t.Fatal("no HBM read lines reported")
	}
	b := s.MemoryBreakdown()
	if b.HBMReadLines != s.HBMLines || b.HBMWriteLines != s.HBMWriteLines {
		t.Fatalf("breakdown lines %d/%d disagree with stats %d/%d",
			b.HBMReadLines, b.HBMWriteLines, s.HBMLines, s.HBMWriteLines)
	}
	if b.HBMWriteQueued != s.HBMWriteQueued || b.HBMReadQueued != s.HBMQueued {
		t.Fatal("breakdown queued cycles disagree with stats")
	}
	if s.HBMWriteLines > 0 && b.AvgWriteQueueCycles != float64(s.HBMWriteQueued)/float64(s.HBMWriteLines) {
		t.Fatal("breakdown average write queue delay miscomputed")
	}
	if b.Writebacks != s.Writebacks || b.Stores != s.Stores {
		t.Fatal("breakdown writeback/store counters disagree with stats")
	}
}

func TestArenaNonOverlapping(t *testing.T) {
	a := NewArena(DefaultParams())
	r1 := a.Alloc(100)
	r2 := a.Alloc(100)
	if r1 == 0 {
		t.Fatal("arena allocated address 0")
	}
	if r2 < r1+400 {
		t.Fatalf("regions overlap: %#x then %#x", r1, r2)
	}
	if r1%64 != 0 || r2%64 != 0 {
		t.Fatal("allocations not block-aligned")
	}
}

func TestMachineRunSimple(t *testing.T) {
	m := MustMachine(cfg2x4(SC))
	arena := NewArena(m.Config().Params)
	buf := arena.Alloc(1024)
	res := m.Run(Program{PE: func(p *Proc) {
		for i := 0; i < 64; i++ {
			p.Load(buf + uint64(i*4))
			p.Compute(1)
		}
	}})
	if res.Cycles <= 64 {
		t.Fatalf("cycles %d implausibly low", res.Cycles)
	}
	s := res.Stats
	if s.Loads != 8*64 {
		t.Fatalf("loads = %d, want %d", s.Loads, 8*64)
	}
	if s.L1Hits+s.L1Misses != s.Loads {
		t.Fatalf("L1 accounting: %d + %d != %d", s.L1Hits, s.L1Misses, s.Loads)
	}
	if s.L1Hits == 0 {
		t.Fatal("sequential stream should mostly hit after the first block")
	}
	if res.EnergyJ <= 0 {
		t.Fatal("energy must be positive")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() Result {
		m := MustMachine(cfg2x4(SCS))
		arena := NewArena(m.Config().Params)
		buf := arena.Alloc(4096)
		return m.Run(Program{PE: func(p *Proc) {
			// Mix of strided and pseudo-random accesses plus SPM.
			x := uint64(p.GlobalPE()*2654435761 + 17)
			for i := 0; i < 500; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				p.Load(buf + (x%4096)*4)
				p.SPMStore(int(x % 512))
				p.Compute(2)
			}
		}})
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles {
		t.Fatalf("nondeterministic cycles: %d vs %d", a.Cycles, b.Cycles)
	}
	if a.Stats != b.Stats {
		t.Fatalf("nondeterministic stats:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

func TestSharedCacheEnablesReuse(t *testing.T) {
	// All PEs walk the same array. In SC (shared L1) later PEs reuse the
	// lines the first PE brought in; in PC each PE misses in its own
	// private bank. The shared configuration must show a higher hit rate.
	work := func(m *Machine) Stats {
		arena := NewArena(m.Config().Params)
		buf := arena.Alloc(512) // 2 kB: fits in a shared tile pool
		return m.Run(Program{PE: func(p *Proc) {
			for rep := 0; rep < 4; rep++ {
				for i := 0; i < 512; i++ {
					p.Load(buf + uint64(i*4))
				}
			}
		}}).Stats
	}
	shared := work(MustMachine(cfg2x4(SC)))
	priv := work(MustMachine(cfg2x4(PC)))
	sharedRate := float64(shared.L1Hits) / float64(shared.L1Hits+shared.L1Misses)
	privRate := float64(priv.L1Hits) / float64(priv.L1Hits+priv.L1Misses)
	if sharedRate <= privRate {
		t.Fatalf("shared hit rate %.3f not above private %.3f", sharedRate, privRate)
	}
}

func TestPrivateModeAvoidsContention(t *testing.T) {
	// Disjoint per-PE working sets: private caches see no arbitration,
	// shared mode pays crossbar arbitration on every access. Private
	// should be no slower.
	work := func(m *Machine) int64 {
		arena := NewArena(m.Config().Params)
		bufs := make([]uint64, 8)
		for i := range bufs {
			bufs[i] = arena.Alloc(256)
		}
		return m.Run(Program{PE: func(p *Proc) {
			buf := bufs[p.GlobalPE()]
			for rep := 0; rep < 8; rep++ {
				for i := 0; i < 256; i++ {
					p.Load(buf + uint64(i*4))
				}
			}
		}}).Cycles
	}
	shared := work(MustMachine(cfg2x4(SC)))
	priv := work(MustMachine(cfg2x4(PC)))
	if priv > shared {
		t.Fatalf("private (%d cycles) slower than shared (%d) on disjoint sets", priv, shared)
	}
}

func TestSPMFasterThanThrashingCache(t *testing.T) {
	// Random accesses over a 16 k-word span. Through the SCS shared SPM
	// they are single-digit cycles; through the SC cache they thrash.
	const span = 16384
	randWalk := func(p *Proc, spm bool, buf uint64) {
		x := uint64(p.GlobalPE()*40503 + 7)
		for i := 0; i < 2000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			if spm {
				p.SPMLoad(int(x % 2048)) // within SPM capacity
			} else {
				p.Load(buf + (x%span)*4)
			}
		}
	}
	mSCS := MustMachine(cfg2x4(SCS))
	spmCycles := mSCS.Run(Program{PE: func(p *Proc) { randWalk(p, true, 0) }}).Cycles

	mSC := MustMachine(cfg2x4(SC))
	arena := NewArena(mSC.Config().Params)
	buf := arena.Alloc(span)
	cacheCycles := mSC.Run(Program{PE: func(p *Proc) { randWalk(p, false, buf) }}).Cycles

	if spmCycles >= cacheCycles {
		t.Fatalf("SPM random access (%d cycles) not faster than thrashing cache (%d)", spmCycles, cacheCycles)
	}
}

func TestStoreBufferAbsorbsStores(t *testing.T) {
	m := MustMachine(cfg2x4(PC))
	arena := NewArena(m.Config().Params)
	buf := arena.Alloc(64)
	res := m.Run(Program{PE: func(p *Proc) {
		for i := 0; i < 32; i++ {
			p.Store(buf + uint64((i%16)*4))
		}
	}})
	if res.Stats.Stores != 8*32 {
		t.Fatalf("stores = %d", res.Stats.Stores)
	}
	// 32 stores to a hot line should take far less than 32 full memory
	// latencies thanks to the store buffer.
	if res.Cycles > 32*DefaultParams().HBMBaseLatency {
		t.Fatalf("stores fully serialized: %d cycles", res.Cycles)
	}
}

func TestLCPPhaseRunsAfterPEs(t *testing.T) {
	m := MustMachine(cfg2x4(PC))
	var lcpStart int64 = -1
	res := m.Run(Program{
		PE: func(p *Proc) { p.Compute(100) },
		LCP: func(p *Proc) {
			if lcpStart < 0 || p.Now() < lcpStart {
				lcpStart = p.Now()
			}
			p.Compute(50)
		},
	})
	if lcpStart < 100 {
		t.Fatalf("LCP started at %d, before PEs finished (100)", lcpStart)
	}
	if res.Cycles < 150 {
		t.Fatalf("makespan %d, want >= 150", res.Cycles)
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	cfg := cfg2x4(SC)
	run := func(n int) float64 {
		m := MustMachine(cfg)
		arena := NewArena(cfg.Params)
		buf := arena.Alloc(65536)
		return m.Run(Program{PE: func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Load(buf + uint64((i*64)%262144))
				p.Compute(1)
			}
		}}).EnergyJ
	}
	small, large := run(100), run(1000)
	if large < small*3 {
		t.Fatalf("energy did not scale with work: %g vs %g", small, large)
	}
}

func TestPowerIsPlausible(t *testing.T) {
	// A 16×16 machine under load should burn well under a watt of
	// static+dynamic power — the paper claims the CPU uses ≥200× more.
	cfg := NewConfig(Geometry{Tiles: 16, PEsPerTile: 16}, SC)
	m := MustMachine(cfg)
	arena := NewArena(cfg.Params)
	buf := arena.Alloc(1 << 20)
	res := m.Run(Program{PE: func(p *Proc) {
		x := uint64(p.GlobalPE()*2654435761 + 3)
		for i := 0; i < 200; i++ {
			x = x*6364136223846793005 + 1
			p.Load(buf + (x%(1<<20))*4)
			p.Compute(2)
		}
	}})
	w := Power(cfg, res.Stats)
	if w <= 0 || w > 5 {
		t.Fatalf("power = %g W, want (0, 5)", w)
	}
}

func TestDescribeMentionsGeometry(t *testing.T) {
	m := MustMachine(cfg2x4(SCS))
	d := m.Describe()
	if !strings.Contains(d, "2x4") || !strings.Contains(d, "SCS") {
		t.Fatalf("Describe() = %q", d)
	}
}

func TestRunPanicsWithoutPE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run with nil PE did not panic")
		}
	}()
	MustMachine(cfg2x4(SC)).Run(Program{})
}

func TestHitRatesAndBandwidth(t *testing.T) {
	m := MustMachine(cfg2x4(SC))
	arena := NewArena(m.Config().Params)
	buf := arena.Alloc(256)
	res := m.Run(Program{PE: func(p *Proc) {
		for rep := 0; rep < 4; rep++ {
			for i := 0; i < 256; i++ {
				p.Load(buf + uint64(i*4))
			}
		}
	}})
	s := res.Stats
	if r := s.L1HitRate(); r <= 0.5 || r > 1 {
		t.Fatalf("L1 hit rate %.3f for a resident working set", r)
	}
	if bw := s.HBMBandwidthGBs(64); bw <= 0 {
		t.Fatalf("bandwidth %g", bw)
	}
	if (Stats{}).L1HitRate() != 0 || (Stats{}).L2HitRate() != 0 {
		t.Fatal("empty stats should have zero hit rates")
	}
}

func TestBalanceMetric(t *testing.T) {
	// Equal work: balance near 1. One straggler: balance well below 1.
	run := func(straggler bool) float64 {
		m := MustMachine(cfg2x4(PC))
		return m.Run(Program{PE: func(p *Proc) {
			n := 100
			if straggler && p.GlobalPE() == 0 {
				n = 5000
			}
			p.Compute(n)
		}}).Balance
	}
	if b := run(false); b < 0.95 {
		t.Fatalf("balanced run balance %.3f", b)
	}
	if b := run(true); b > 0.5 {
		t.Fatalf("straggler run balance %.3f, should be low", b)
	}
}

func TestKernelPanicPropagatesWithoutDeadlock(t *testing.T) {
	m := MustMachine(cfg2x4(SC))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("kernel panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "kernel bug" {
			t.Fatalf("wrong panic payload: %v", r)
		}
	}()
	m.Run(Program{PE: func(p *Proc) {
		p.Compute(10)
		if p.GlobalPE() == 3 {
			panic("kernel bug")
		}
		p.Compute(10)
	}})
}

func TestKernelPanicMidRunFinishesOthers(t *testing.T) {
	// One PE panics after it has yielded many times; every other PE
	// must still run to its end, the panic must reach the caller, and
	// no kernel coroutine may be left parked behind it.
	m := MustMachine(NewConfig(Geometry{Tiles: 4, PEsPerTile: 8}, SC))
	arena := NewArena(m.Config().Params)
	buf := arena.Alloc(1 << 14)
	finished := make([]bool, 32)
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if r := recover(); r != "PE 5 bug" {
				t.Fatalf("recovered %v, want the kernel's panic", r)
			}
		}()
		m.Run(Program{PE: func(p *Proc) {
			for i := 0; i < 2000; i++ {
				p.Load(buf + uint64((p.GlobalPE()*977+i*61)%(1<<14))*4)
				if p.GlobalPE() == 5 && i == 700 {
					panic("PE 5 bug")
				}
			}
			finished[p.GlobalPE()] = true
		}})
	}()
	for pe, ok := range finished {
		if ok == (pe == 5) {
			t.Errorf("PE %d finished = %v", pe, ok)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the run, %d before", after, before)
	}
}

func TestEnergyBreakdownSumsToTotal(t *testing.T) {
	cfg := cfg2x4(SCS)
	m := MustMachine(cfg)
	arena := NewArena(cfg.Params)
	buf := arena.Alloc(8192)
	res := m.Run(Program{PE: func(p *Proc) {
		for i := 0; i < 300; i++ {
			p.Load(buf + uint64((i*97%8192)*4))
			p.SPMStore(i % 256)
			p.Compute(2)
			p.Store(buf + uint64((i%64)*4))
		}
	}})
	b := EnergyBreakdown(cfg, res.Stats)
	if d := b.Total() - res.EnergyJ; d > 1e-12 || d < -1e-12 {
		t.Fatalf("breakdown total %g != energy %g", b.Total(), res.EnergyJ)
	}
	// Every exercised component must carry energy.
	for name, v := range map[string]float64{
		"alu": b.ALU, "spm": b.SPM, "l2": b.L2, "hbm": b.HBM,
		"stores": b.Stores, "static": b.Static, "xbar": b.Xbar,
	} {
		if v <= 0 {
			t.Errorf("component %s has no energy", name)
		}
	}
}

func TestEnergyConfigurationContrast(t *testing.T) {
	// The same random-access workload through SPM (PS) must spend less
	// on the memory system than through caches (PC) — the premise of
	// the paper's energy story.
	work := func(hw HWConfig) Breakdown {
		cfg := cfg2x4(hw)
		m := MustMachine(cfg)
		arena := NewArena(cfg.Params)
		buf := arena.Alloc(1024)
		res := m.Run(Program{PE: func(p *Proc) {
			x := uint64(p.GlobalPE()*131 + 7)
			for i := 0; i < 1000; i++ {
				x = x*6364136223846793005 + 1
				if hw == PS {
					p.SPMLoad(int(x % 1024))
				} else {
					p.Load(buf + (x%1024)*4)
				}
			}
		}})
		return EnergyBreakdown(cfg, res.Stats)
	}
	ps := work(PS)
	pc := work(PC)
	if ps.SPM <= 0 || pc.L1 <= 0 {
		t.Fatal("workloads did not exercise the intended paths")
	}
	if ps.SPM+ps.L1+ps.L2+ps.HBM >= pc.L1+pc.L2+pc.HBM {
		t.Fatalf("SPM path (%g J) not cheaper than cache path (%g J)",
			ps.SPM+ps.L1+ps.L2+ps.HBM, pc.L1+pc.L2+pc.HBM)
	}
}
