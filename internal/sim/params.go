// Package sim is a deterministic, trace-driven timing simulator for a
// Transmuter-style reconfigurable many-core (Pal et al., PACT 2020),
// the hardware substrate the CoSPARSE paper runs on.
//
// The machine is Tiles × PEsPerTile lightweight in-order cores plus one
// LCP (local control processor) per tile, connected through a two-level
// reconfigurable memory hierarchy: L1 RCache banks (one per PE) and L2
// RCache banks behind reconfigurable crossbars, backed by an HBM2-style
// main memory with 16 pseudo-channels. Each level can be configured as
// private or shared, cache or scratchpad — giving the four named
// configurations of the paper:
//
//	SC  — L1 shared cache,            L2 shared cache  (for IP)
//	SCS — L1 shared cache + SPM half, L2 shared cache  (for IP)
//	PC  — L1 private cache,           L2 private cache (for OP)
//	PS  — L1 private SPM,             L2 private cache (for OP)
//
// Kernels execute functionally (they compute real values, which tests
// check against references) while issuing every memory reference to the
// modelled hierarchy; PEs advance local clocks and a min-time scheduler
// interleaves them so shared-cache reuse, bank conflicts and channel
// queuing are temporally honest. Everything is deterministic.
package sim

import "fmt"

// HWConfig names the four on-chip memory configurations CoSPARSE
// selects between (paper Fig. 2).
type HWConfig int

const (
	// SC: L1 shared cache per tile, L2 shared across tiles.
	SC HWConfig = iota
	// SCS: half of each tile's L1 banks become a shared SPM (holding
	// the frontier vblock), the rest remain a shared cache; L2 shared.
	SCS
	// PC: L1 private cache per PE, L2 private per tile.
	PC
	// PS: L1 banks become private SPMs (holding the OP merge heap);
	// cacheable traffic goes directly to the private L2.
	PS
)

// String returns the paper's name for the configuration.
func (h HWConfig) String() string {
	switch h {
	case SC:
		return "SC"
	case SCS:
		return "SCS"
	case PC:
		return "PC"
	case PS:
		return "PS"
	default:
		return fmt.Sprintf("HWConfig(%d)", int(h))
	}
}

// L1Shared reports whether L1 banks are pooled across the tile.
func (h HWConfig) L1Shared() bool { return h == SC || h == SCS }

// L2Shared reports whether L2 banks are pooled across tiles.
func (h HWConfig) L2Shared() bool { return h == SC || h == SCS }

// Geometry is the machine size, written A×B in the paper: A tiles with
// B PEs per tile.
type Geometry struct {
	Tiles      int
	PEsPerTile int
}

// String formats the geometry the way the paper writes it, e.g. "8x16".
func (g Geometry) String() string { return fmt.Sprintf("%dx%d", g.Tiles, g.PEsPerTile) }

// TotalPEs returns the number of processing elements in the machine.
func (g Geometry) TotalPEs() int { return g.Tiles * g.PEsPerTile }

// Validate rejects degenerate geometries.
func (g Geometry) Validate() error {
	if g.Tiles < 1 || g.PEsPerTile < 1 {
		return fmt.Errorf("sim: invalid geometry %dx%d", g.Tiles, g.PEsPerTile)
	}
	return nil
}

// Params are the microarchitectural constants of Table II plus the
// derived quantities the model needs. DefaultParams matches the paper.
type Params struct {
	WordBytes  int // machine word (float32 / int32)
	BlockBytes int // cache line

	L1BankBytes int // one RCache bank per PE
	L1Assoc     int
	L1Latency   int64 // bank access, cycles
	L2BankBytes int   // one L2 bank per PE position
	L2Assoc     int
	L2Latency   int64 // bank access, cycles

	SPMLatency  int64 // word-granular scratchpad access
	XbarArb     int64 // arbitration latency of a shared (arbitrated) crossbar
	XbarLatency int64 // traversal latency of any crossbar

	MSHRs          int // outstanding misses per bank; caps prefetch depth
	PrefetchDegree int // stride prefetcher lines fetched ahead

	HBMChannels     int
	HBMBaseLatency  int64 // cycles: row access + controller (paper: 80–150 ns)
	HBMLineOccupied int64 // cycles a 64 B line occupies one pseudo-channel (64 B / 8 GB/s = 8 ns)

	StoreBufDepth int // in-order core store buffer entries

	ReconfigCycles int64 // runtime reconfiguration cost (paper: ≤10)

	// SchedulerWindow is the interleaving slack of the event scheduler:
	// the running PE may get at most this many cycles ahead of the
	// globally-earliest PE before yielding. Smaller = finer-grained
	// contention modelling, larger = faster simulation.
	SchedulerWindow int64
}

// DefaultParams returns the Table II configuration.
func DefaultParams() Params {
	return Params{
		WordBytes:       4,
		BlockBytes:      64,
		L1BankBytes:     4 * 1024,
		L1Assoc:         4,
		L1Latency:       1,
		L2BankBytes:     8 * 1024,
		L2Assoc:         8,
		L2Latency:       4,
		SPMLatency:      1,
		XbarArb:         1,
		XbarLatency:     1,
		MSHRs:           8,
		PrefetchDegree:  8,
		HBMChannels:     16,
		HBMBaseLatency:  80,
		HBMLineOccupied: 8,
		StoreBufDepth:   4,
		ReconfigCycles:  10,
		SchedulerWindow: 32,
	}
}

// Config fully describes one machine instantiation.
type Config struct {
	Geometry Geometry
	HW       HWConfig
	Params   Params
}

// NewConfig builds a Config with DefaultParams.
func NewConfig(g Geometry, hw HWConfig) Config {
	return Config{Geometry: g, HW: hw, Params: DefaultParams()}
}

// L1CacheBanksPerTile returns how many L1 banks remain caches in this
// configuration (SCS donates half of them to the shared SPM; PS donates
// all of them to private SPMs).
func (c Config) L1CacheBanksPerTile() int {
	p := c.Geometry.PEsPerTile
	switch c.HW {
	case SCS:
		half := p / 2
		if half == 0 {
			half = 1 // a 1-PE tile keeps one bank; SPM takes priority below
		}
		return p - half
	case PS:
		return 0
	default:
		return p
	}
}

// SPMBanksPerTile returns how many L1 banks are scratchpads.
func (c Config) SPMBanksPerTile() int {
	p := c.Geometry.PEsPerTile
	switch c.HW {
	case SCS:
		half := p / 2
		if half == 0 {
			half = 1
		}
		return half
	case PS:
		return p
	default:
		return 0
	}
}

// SPMWordsPerTile returns the scratchpad capacity of one tile in words.
// For SCS this is the shared vblock buffer; for PS it is the sum of the
// per-PE private SPMs.
func (c Config) SPMWordsPerTile() int {
	return c.SPMBanksPerTile() * c.Params.L1BankBytes / c.Params.WordBytes
}

// SPMWordsPerPE returns the private scratchpad capacity of one PE in
// words (PS mode).
func (c Config) SPMWordsPerPE() int {
	if c.HW != PS {
		return 0
	}
	return c.Params.L1BankBytes / c.Params.WordBytes
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	p := c.Params
	if p.WordBytes <= 0 || p.BlockBytes <= 0 || p.BlockBytes%p.WordBytes != 0 {
		return fmt.Errorf("sim: invalid word/block bytes %d/%d", p.WordBytes, p.BlockBytes)
	}
	if p.L1BankBytes%p.BlockBytes != 0 || p.L2BankBytes%p.BlockBytes != 0 {
		return fmt.Errorf("sim: bank sizes must be multiples of the block size")
	}
	if p.L1Assoc <= 0 || p.L2Assoc <= 0 || p.HBMChannels <= 0 {
		return fmt.Errorf("sim: associativity and channel count must be positive")
	}
	if c.HW < SC || c.HW > PS {
		return fmt.Errorf("sim: unknown hardware configuration %d", int(c.HW))
	}
	return nil
}
