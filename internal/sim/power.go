package sim

// Energy model. The paper builds its power model from per-component
// synthesis reports and CACTI 7.0, cross-verified against a fabricated
// 40 nm prototype (Pal et al., VLSI 2019). We reproduce the same
// *structure* — per-event dynamic energy plus per-component static
// power integrated over the makespan — with constants chosen to be
// plausible for a 40 nm-class design. Absolute joules are therefore
// indicative, but the ratios between configurations and against the
// CPU/GPU/Xeon baseline models (which use the same kind of accounting)
// are meaningful, which is what the paper reports.

// Per-event dynamic energies, picojoules. Calibrated so a loaded 16×16
// machine draws ~1-1.5 W — the operating point that reproduces the
// paper's energy-efficiency ratios against the CPU/GPU/Xeon models
// (their implied CPU:CoSPARSE power ratio is ~63, §IV-C).
const (
	eALUOp    = 2.0   // one in-order integer/FP op, incl. register file
	eSPM      = 3.0   // word-granular scratchpad read/write
	eL1Hit    = 5.5   // 4 kB bank probe + data
	eL2Access = 12.0  // 8 kB bank probe + data
	eXbarHop  = 1.5   // crossbar traversal
	eHBMLine  = 700.0 // 64 B line, HBM2 interface + DRAM core
	eStoreOp  = 2.0   // store issue overhead
)

// Static power, watts per component.
const (
	pPELeak   = 0.00045 // one PE or LCP, leakage + clock tree
	pBankLeak = 0.00018 // one 4-8 kB RCache/SPM bank
	pHBMIdle  = 0.12    // HBM stack standby, amortized over the chip
)

// ClockHz is the PE clock of Table II (1 GHz): one cycle is one
// nanosecond, which also makes cycles↔seconds conversion trivial.
const ClockHz = 1e9

// Breakdown itemizes a run's energy by component, in joules — the
// structure of the paper's power model (per-component dynamic energy
// plus leakage integrated over the makespan).
type Breakdown struct {
	ALU, SPM, L1, L2, Xbar, HBM, Stores, Static float64
}

// Total sums the components.
func (b Breakdown) Total() float64 {
	return b.ALU + b.SPM + b.L1 + b.L2 + b.Xbar + b.HBM + b.Stores + b.Static
}

// EnergyBreakdown itemizes the energy of a run.
func EnergyBreakdown(cfg Config, s Stats) Breakdown {
	g := cfg.Geometry
	nCores := float64(g.TotalPEs() + g.Tiles) // PEs + LCPs
	nBanks := float64(2 * g.TotalPEs())       // L1 + L2 banks, one of each per PE position
	staticW := nCores*pPELeak + nBanks*pBankLeak + pHBMIdle
	seconds := float64(s.Cycles) / ClockHz
	const pj = 1e-12
	return Breakdown{
		ALU:    float64(s.ALUOps) * eALUOp * pj,
		SPM:    float64(s.SPMReads+s.SPMWrites) * eSPM * pj,
		L1:     float64(s.L1Hits+s.L1Misses) * eL1Hit * pj,
		L2:     float64(s.L2Hits+s.L2Misses) * eL2Access * pj,
		Xbar:   float64(s.XbarHops) * eXbarHop * pj,
		HBM:    float64(s.HBMLines) * eHBMLine * pj,
		Stores: float64(s.Stores) * eStoreOp * pj,
		Static: staticW * seconds,
	}
}

// Energy returns the energy in joules consumed by a run with the given
// statistics on the given configuration.
func Energy(cfg Config, s Stats) float64 {
	return EnergyBreakdown(cfg, s).Total()
}
