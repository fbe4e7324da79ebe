package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// pinWorkload drives every Proc entry point from every PE and LCP: a
// sequential stream that restarts and skips lines, random cacheable
// loads and stores over a region larger than L1, scratchpad traffic
// where the configuration has one, and compute. Each processor records
// its own completion time, so the digest sees the interleaving, not
// only the makespan.
func pinWorkload(m *Machine) string {
	cfg := m.Config()
	arena := NewArena(cfg.Params)
	stream := arena.Alloc(1 << 16)
	heap := arena.Alloc(1 << 14)
	out := arena.Alloc(1 << 12)
	ends := make([]int64, cfg.Geometry.TotalPEs()+cfg.Geometry.Tiles)
	spmWords := cfg.SPMWordsPerTile()
	if cfg.HW == PS {
		spmWords = cfg.SPMWordsPerPE()
	}
	res := m.Run(Program{
		PE: func(p *Proc) {
			x := uint64(p.GlobalPE()*2654435761 + 11)
			pos := uint64(p.GlobalPE() * 1024)
			for i := 0; i < 300; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				switch x >> 61 {
				case 0, 1, 2:
					p.LoadStream(stream + (pos%(1<<16))*4)
					pos++
					if x&0xff == 0 {
						pos += uint64(cfg.Params.BlockBytes/4) * (x >> 8 % 5) // skip ahead
					}
				case 3:
					p.Load(heap + (x>>20%(1<<14))*4)
				case 4:
					p.Store(out + (x>>20%(1<<12))*4)
				case 5:
					if spmWords > 0 {
						p.SPMLoad(int(x >> 20 % uint64(spmWords)))
					} else {
						p.LoadN(heap+(x>>20%(1<<13))*4, 3)
					}
				case 6:
					if spmWords > 0 {
						p.SPMStore(int(x >> 20 % uint64(spmWords)))
					} else {
						p.Store(heap + (x>>20%(1<<14))*4)
					}
				default:
					p.Compute(int(x>>40%7) + 1)
				}
			}
			ends[p.GlobalPE()] = p.Now()
		},
		LCP: func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Load(out + uint64((p.Tile()*97+i*13)%(1<<12))*4)
				p.Store(out + uint64((p.Tile()*31+i*7)%(1<<12))*4)
				p.Compute(2)
			}
			ends[cfg.Geometry.TotalPEs()+p.Tile()] = p.Now()
		},
	})
	return fmt.Sprintf("%d %+v %.12g %.12g %v", res.Cycles, res.Stats, res.EnergyJ, res.Balance, ends)
}

// streamWorkload is adversarial for the stream buffers: five
// interleaved streams on four buffers (round-robin reallocation), steps
// back by one and two lines, jumps to the edge of the match window and
// just past it, and returns to lines a reallocated buffer fetched
// earlier — every case where a resident line, a retired one and a
// stale one must be told apart.
func streamWorkload(m *Machine) string {
	cfg := m.Config()
	arena := NewArena(cfg.Params)
	base := arena.Alloc(1 << 18)
	bb := uint64(cfg.Params.BlockBytes)
	mshrs := uint64(cfg.Params.MSHRs)
	ends := make([]int64, cfg.Geometry.TotalPEs())
	res := m.Run(Program{PE: func(p *Proc) {
		x := uint64(p.GlobalPE()*40503 + 5)
		var line [5]uint64
		for i := range line {
			line[i] = uint64(i*4096+p.GlobalPE()*512) + 64
		}
		for i := 0; i < 400; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			s := int(x>>33) % len(line)
			if i%7 < 4 {
				s = i % 4 // mostly the four buffers' worth, so streams stay trained
			}
			switch x >> 60 {
			case 0:
				line[s] -= 1
			case 1:
				line[s] -= 2
			case 2:
				line[s] += mshrs + 2
			case 3:
				line[s] += mshrs + 3
			case 4:
				line[s] -= 3 * mshrs // back into lines a reallocated buffer once held
			default:
				line[s] += x >> 62 // stay on the line or step ahead
			}
			p.LoadStream(base + line[s]%(1<<12)*bb + x>>40%(bb/4)*4)
			if x>>59&1 == 0 {
				p.Compute(1)
			}
		}
		ends[p.GlobalPE()] = p.Now()
	}})
	return fmt.Sprintf("%d %+v %v", res.Cycles, res.Stats, ends)
}

// TestSchedulerTimingsPinned pins the complete outcome of one mixed
// program — makespan, every Stats counter, energy, balance and each
// processor's completion time — on every hardware configuration, on
// power-of-two and other geometries, block sizes, fetch windows and
// scheduler windows. The digests were recorded from the goroutine and
// channel scheduler with container/heap and per-stream maps; the
// simulator's host-side data structures may change, its timing may not.
func TestSchedulerTimingsPinned(t *testing.T) {
	type variant struct {
		name string
		g    Geometry
		tune func(*Params)
	}
	variants := []variant{
		{"2x4", Geometry{Tiles: 2, PEsPerTile: 4}, func(*Params) {}},
		{"3x5", Geometry{Tiles: 3, PEsPerTile: 5}, func(*Params) {}},
		{"4x8-block48", Geometry{Tiles: 4, PEsPerTile: 8}, func(p *Params) {
			p.BlockBytes, p.L1BankBytes, p.L2BankBytes = 48, 48*64, 48*128
		}},
		{"2x4-mshr3-window1", Geometry{Tiles: 2, PEsPerTile: 4}, func(p *Params) {
			p.MSHRs, p.SchedulerWindow = 3, 1
		}},
		{"2x8-noprefetch-window1024", Geometry{Tiles: 2, PEsPerTile: 8}, func(p *Params) {
			p.PrefetchDegree, p.SchedulerWindow = 0, 1024
		}},
	}
	want := map[string]uint64{
		"2x4/SC":                        0x2a0cab4b2590228e,
		"2x4/SCS":                       0x3c291abace39a4d2,
		"2x4/PC":                        0x73a1b51ea61e6ad,
		"2x4/PS":                        0x75b7562adb627c67,
		"3x5/SC":                        0x8e074e8ba56ac35e,
		"3x5/SCS":                       0x19cc786f5fc03f92,
		"3x5/PC":                        0xe1c0df3068543d64,
		"3x5/PS":                        0x805a7bcbfcf91f9f,
		"4x8-block48/SC":                0x9254b19705a09c34,
		"4x8-block48/SCS":               0x5903cbdf3ac9183e,
		"4x8-block48/PC":                0x4c9f224610382518,
		"4x8-block48/PS":                0x70a6572eae6ec873,
		"2x4-mshr3-window1/SC":          0xdef292b906807581,
		"2x4-mshr3-window1/SCS":         0xda75d137484b9489,
		"2x4-mshr3-window1/PC":          0x3491a958fb361870,
		"2x4-mshr3-window1/PS":          0xc3200bbb57d20e3a,
		"2x8-noprefetch-window1024/SC":  0x27deb4c21294cf8d,
		"2x8-noprefetch-window1024/SCS": 0xc6d232344e1bcfa0,
		"2x8-noprefetch-window1024/PC":  0x5890f77eae56ba75,
		"2x8-noprefetch-window1024/PS":  0x5ba6796e5c6ab069,
	}
	for _, v := range variants {
		for _, hw := range []HWConfig{SC, SCS, PC, PS} {
			cfg := NewConfig(v.g, hw)
			v.tune(&cfg.Params)
			h := fnv.New64a()
			h.Write([]byte(pinWorkload(MustMachine(cfg))))
			h.Write([]byte(streamWorkload(MustMachine(cfg))))
			key := v.name + "/" + hw.String()
			if got := h.Sum64(); got != want[key] {
				t.Errorf("%s: digest %#x, want %#x", key, got, want[key])
			}
		}
	}
}
