package sim

import "testing"

func TestLoadStreamSequentialIsCheap(t *testing.T) {
	m := MustMachine(cfg2x4(PC))
	arena := NewArena(m.Config().Params)
	base := arena.Alloc(16384)
	res := m.Run(Program{PE: func(p *Proc) {
		if p.GlobalPE() != 0 {
			return
		}
		for i := 0; i < 4096; i++ {
			p.LoadStream(base + uint64(i*4))
		}
	}})
	// A well-formed stream should cost ~1-2 cycles/word amortized once
	// the buffer is running ahead, far from the ~90-cycle HBM latency.
	perWord := float64(res.Cycles) / 4096
	if perWord > 4 {
		t.Fatalf("stream cost %.2f cycles/word; buffer not hiding latency", perWord)
	}
	if res.Stats.StreamLoads != 4096 {
		t.Fatalf("stream loads = %d", res.Stats.StreamLoads)
	}
}

func TestLoadStreamRandomIsExpensive(t *testing.T) {
	m := MustMachine(cfg2x4(PC))
	arena := NewArena(m.Config().Params)
	base := arena.Alloc(1 << 20)
	res := m.Run(Program{PE: func(p *Proc) {
		if p.GlobalPE() != 0 {
			return
		}
		x := uint64(9)
		for i := 0; i < 512; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			p.LoadStream(base + (x%(1<<20))*4)
		}
	}})
	// Random "streams" never train: each access re-allocates a buffer
	// and waits near-full memory latency.
	perWord := float64(res.Cycles) / 512
	if perWord < 20 {
		t.Fatalf("random stream cost only %.2f cycles/word; buffers should not help here", perWord)
	}
}

func TestTwoInterleavedStreams(t *testing.T) {
	// The OP setup walks two arrays in lockstep; both must stream well.
	m := MustMachine(cfg2x4(PC))
	arena := NewArena(m.Config().Params)
	a := arena.Alloc(8192)
	b := arena.Alloc(8192)
	res := m.Run(Program{PE: func(p *Proc) {
		if p.GlobalPE() != 0 {
			return
		}
		for i := 0; i < 2048; i++ {
			p.LoadStream(a + uint64(i*4))
			p.LoadStream(b + uint64(i*4))
		}
	}})
	perWord := float64(res.Cycles) / 4096
	if perWord > 4 {
		t.Fatalf("interleaved streams cost %.2f cycles/word", perWord)
	}
}

// maxReady returns the largest resident-line count across a PE's
// stream buffers — the quantity retirement must bound.
func maxReady(p *Proc, cur int) int {
	for i := range p.sbufs {
		s := &p.sbufs[i]
		n := 0
		for _, e := range s.ready {
			if e.tag != 0 && e.tag-1 >= s.low {
				n++
			}
		}
		cur = max(cur, n)
	}
	return cur
}

func TestLoadStreamRetirementBoundsReadyMap(t *testing.T) {
	// Regression test for the retirement bug: LoadStream used to delete
	// only line-2 from its per-stream ready map, so a consumer that skips
	// a line (stride crossing, restart inside the match window) stranded
	// an entry per skip for the buffer's lifetime. The skipping pattern
	// below — touching every other line — previously grew the map to
	// 500+ entries; the ring that replaced the map must still hold no
	// more resident lines than the fetch window, whatever the pattern.
	par := DefaultParams()
	bound := int(par.MSHRs) + 4 // fetch window + the d>=-2 revisit margin

	patterns := map[string]func(load func(uint64), base uint64){
		"sequential": func(load func(uint64), base uint64) {
			for i := 0; i < 4096; i++ {
				load(base + uint64(i*4))
			}
		},
		"skipping": func(load func(uint64), base uint64) {
			// One word per line, every other line: each access advances
			// lastLine by 2, so single-entry retirement leaks one entry
			// per access.
			for i := 0; i < 512; i++ {
				load(base + uint64(i)*2*uint64(par.BlockBytes))
			}
		},
	}
	for name, walk := range patterns {
		m := MustMachine(cfg2x4(PC))
		arena := NewArena(m.Config().Params)
		base := arena.Alloc(1 << 18)
		peak := 0
		m.Run(Program{PE: func(p *Proc) {
			if p.GlobalPE() != 0 {
				return
			}
			walk(func(addr uint64) {
				p.LoadStream(addr)
				peak = maxReady(p, peak)
			}, base)
		}})
		if peak > bound {
			t.Errorf("%s: ready map peaked at %d entries, want <= %d", name, peak, bound)
		}
	}
}

func TestLoadStreamTimingsUnchangedByRetirementFix(t *testing.T) {
	// Cycle counts pinned from the pre-fix simulator: the retirement
	// sweep must not perturb timing for any of these patterns — the bug
	// was purely a bookkeeping leak.
	run := func(walk func(p *Proc, base uint64)) int64 {
		m := MustMachine(cfg2x4(PC))
		arena := NewArena(m.Config().Params)
		base := arena.Alloc(1 << 18)
		return m.Run(Program{PE: func(p *Proc) {
			if p.GlobalPE() != 0 {
				return
			}
			walk(p, base)
		}}).Cycles
	}
	par := DefaultParams()
	sequential := run(func(p *Proc, base uint64) {
		for i := 0; i < 4096; i++ {
			p.LoadStream(base + uint64(i*4))
		}
	})
	interleaved := run(func(p *Proc, base uint64) {
		b2 := base + 1<<17
		for i := 0; i < 2048; i++ {
			p.LoadStream(base + uint64(i*4))
			p.LoadStream(b2 + uint64(i*4))
		}
	})
	skipping := run(func(p *Proc, base uint64) {
		for i := 0; i < 512; i++ {
			p.LoadStream(base + uint64(i)*2*uint64(par.BlockBytes))
		}
	})
	if sequential != 4183 {
		t.Errorf("sequential stream = %d cycles, want 4183 (pre-fix baseline)", sequential)
	}
	if interleaved != 4270 {
		t.Errorf("interleaved streams = %d cycles, want 4270 (pre-fix baseline)", interleaved)
	}
	if skipping != 9065 {
		t.Errorf("skipping stream = %d cycles, want 9065 (pre-fix baseline)", skipping)
	}
}

func TestStreamInstallPollutesL1(t *testing.T) {
	// A PE keeps a small hot set in its private L1 while a long stream
	// passes through: the stream's installs must evict hot lines,
	// degrading the hit rate versus a no-stream run. This is the
	// SC-vs-SCS contention mechanism of the paper's §III-C2.
	hot := func(withStream bool) Stats {
		m := MustMachine(cfg2x4(PC))
		arena := NewArena(m.Config().Params)
		hotBuf := arena.Alloc(1024) // 4 kB: exactly one private L1 bank
		streamBuf := arena.Alloc(1 << 18)
		return m.Run(Program{PE: func(p *Proc) {
			if p.GlobalPE() != 0 {
				return
			}
			x := uint64(5)
			for i := 0; i < 4000; i++ {
				x = x*6364136223846793005 + 1
				p.Load(hotBuf + (x%1024)*4)
				if withStream {
					p.LoadStream(streamBuf + uint64(i*64))
				}
			}
		}}).Stats
	}
	clean := hot(false)
	dirty := hot(true)
	cleanRate := float64(clean.L1Hits) / float64(clean.L1Hits+clean.L1Misses)
	dirtyRate := float64(dirty.L1Hits) / float64(dirty.L1Hits+dirty.L1Misses)
	if dirtyRate >= cleanRate {
		t.Fatalf("stream did not pollute the cache: hit rate %.3f with stream vs %.3f without",
			dirtyRate, cleanRate)
	}
}

func TestStreamBandwidthBound(t *testing.T) {
	// All PEs streaming concurrently must saturate the channels: the
	// makespan has to sit near the aggregate-bandwidth floor, not at
	// the per-access latency bound.
	cfg := NewConfig(Geometry{Tiles: 4, PEsPerTile: 8}, PC)
	m := MustMachine(cfg)
	arena := NewArena(cfg.Params)
	const wordsPerPE = 8192
	bases := make([]uint64, 32)
	for i := range bases {
		bases[i] = arena.Alloc(wordsPerPE)
	}
	res := m.Run(Program{PE: func(p *Proc) {
		base := bases[p.GlobalPE()]
		for i := 0; i < wordsPerPE; i++ {
			p.LoadStream(base + uint64(i*4))
		}
	}})
	p := cfg.Params
	totalLines := int64(32 * wordsPerPE * 4 / p.BlockBytes)
	floor := totalLines * p.HBMLineOccupied / int64(p.HBMChannels)
	if res.Cycles < floor {
		t.Fatalf("makespan %d below the bandwidth floor %d — accounting broken", res.Cycles, floor)
	}
	if res.Cycles > 4*floor {
		t.Fatalf("makespan %d far above the bandwidth floor %d — streams not overlapping", res.Cycles, floor)
	}
}

func TestSchedulerWindowCausality(t *testing.T) {
	// Wider scheduler windows trade contention fidelity for speed; the
	// distortion must stay bounded at the default window and blow up
	// only for extreme values (documented in the ablation benchmarks).
	run := func(window int64) int64 {
		cfg := cfg2x4(SC)
		cfg.Params.SchedulerWindow = window
		m := MustMachine(cfg)
		arena := NewArena(cfg.Params)
		buf := arena.Alloc(1 << 16)
		return m.Run(Program{PE: func(p *Proc) {
			x := uint64(p.GlobalPE()*7919 + 3)
			for i := 0; i < 1500; i++ {
				x = x*6364136223846793005 + 1
				p.Load(buf + (x%(1<<16))*4)
			}
		}}).Cycles
	}
	exact := run(1)
	deflt := run(DefaultParams().SchedulerWindow)
	ratio := float64(deflt) / float64(exact)
	if ratio > 1.25 || ratio < 0.8 {
		t.Fatalf("default window distorts cycles by %.2fx vs exact interleaving", ratio)
	}
}

func TestHBMQueueingReported(t *testing.T) {
	// 32 concurrent streams oversubscribe the 16 channels: the channel
	// queues must back up and the queueing delay must be reported.
	cfg := NewConfig(Geometry{Tiles: 4, PEsPerTile: 8}, PC)
	m := MustMachine(cfg)
	arena := NewArena(cfg.Params)
	bases := make([]uint64, 32)
	for i := range bases {
		bases[i] = arena.Alloc(4096)
	}
	res := m.Run(Program{PE: func(p *Proc) {
		base := bases[p.GlobalPE()]
		for i := 0; i < 4096; i++ {
			p.LoadStream(base + uint64(i*4))
		}
	}})
	if res.Stats.HBMQueued == 0 {
		t.Fatal("saturating streams produced no reported channel queueing")
	}
}
