// Command spmvrun runs a single SpMV kernel under an explicit
// software/hardware configuration and prints the cycle count and the
// full event statistics — the exploration tool behind the paper's
// threshold analysis (§III-C).
//
// Usage:
//
//	spmvrun -n 131072 -nnz 4000000 -density 0.01 -tiles 4 -pes 16 -sw ip -hw sc
//	spmvrun -n 65536 -nnz 250000 -density 0.005 -sw op -hw ps -matrix powerlaw
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

func main() {
	n := flag.Int("n", 65536, "matrix dimension")
	nnz := flag.Int("nnz", 250000, "matrix nonzeros")
	density := flag.Float64("density", 0.01, "frontier vector density")
	mkind := flag.String("matrix", "uniform", "matrix kind: uniform or powerlaw")
	tiles := flag.Int("tiles", 4, "tiles")
	pes := flag.Int("pes", 16, "PEs per tile")
	backend := flag.String("backend", "sim", "execution backend: sim (trace-driven timing) or native (goroutine-parallel host run)")
	format := flag.String("format", "auto", "matrix storage format: auto, csr, or dvcsr (delta-varint)")
	sw := flag.String("sw", "ip", "software: ip or op")
	hw := flag.String("hw", "", "hardware: sc, scs, pc, ps (default: sc for ip, pc for op)")
	balance := flag.Bool("balance", true, "use nnz-balanced partitioning")
	seed := flag.Uint64("seed", 42, "generator seed")
	flag.Parse()

	if *n <= 0 || *nnz <= 0 {
		fail(fmt.Errorf("-n and -nnz must be positive, got %d/%d", *n, *nnz))
	}
	if *tiles <= 0 || *pes <= 0 {
		fail(fmt.Errorf("-tiles and -pes must be positive, got %d/%d", *tiles, *pes))
	}
	if *density < 0 || *density > 1 {
		fail(fmt.Errorf("-density must be in [0,1], got %g", *density))
	}
	if s := strings.ToLower(*sw); s != "ip" && s != "op" {
		fail(fmt.Errorf("unknown -sw %q (want ip or op)", *sw))
	}

	var coo *matrix.COO
	switch *mkind {
	case "uniform":
		coo = gen.Uniform(*n, *nnz, gen.Pattern, *seed)
	case "powerlaw":
		coo = gen.PowerLaw(*n, *nnz, 0.6, gen.Pattern, *seed)
	default:
		fail(fmt.Errorf("unknown -matrix %q", *mkind))
	}
	f := gen.Frontier(*n, *density, *seed+1)

	// The kernels consume the matrix through the storage seam, so the
	// same partition code runs whichever format holds the operand.
	var st matrix.Store = coo
	mf, err := matrix.ParseFormat(*format)
	switch {
	case strings.ToLower(*format) == "auto":
		mf = matrix.AutoSelect(coo)
	case err != nil:
		fail(fmt.Errorf("unknown -format %q (want auto, csr, or dvcsr)", *format))
	}
	if mf == matrix.FormatDVCSR {
		d, err := matrix.EncodeDVCSR(coo)
		if err != nil {
			fail(err)
		}
		st = d
	}

	useIP := strings.ToLower(*sw) == "ip"
	hwName := strings.ToLower(*hw)
	if hwName == "" {
		if useIP {
			hwName = "sc"
		} else {
			hwName = "pc"
		}
	}
	var hwc sim.HWConfig
	switch hwName {
	case "sc":
		hwc = sim.SC
	case "scs":
		hwc = sim.SCS
	case "pc":
		hwc = sim.PC
	case "ps":
		hwc = sim.PS
	default:
		fail(fmt.Errorf("unknown -hw %q", *hw))
	}

	bal := kernels.BalanceNNZ
	if !*balance {
		bal = kernels.BalanceRows
	}
	g := sim.Geometry{Tiles: *tiles, PEsPerTile: *pes}
	cfg := sim.NewConfig(g, hwc)
	op := kernels.Operand{Ring: semiring.SpMV()}

	be, err := exec.ByName(*backend)
	if err != nil {
		fail(err)
	}

	var res exec.Result
	if useIP {
		vb := sim.NewConfig(g, sim.SCS).SPMWordsPerTile()
		part := kernels.NewIPPartition(st, g.TotalPEs(), vb, bal)
		_, res = be.IP(cfg, part, f.ToDense(0), op)
	} else {
		part := kernels.NewOPPartition(st, g.Tiles, bal)
		_, res = be.OP(cfg, part, f, op)
	}

	fmt.Printf("matrix: %s n=%d nnz=%d (density %.2e) stored as %s (%d bytes); frontier density %g (%d active)\n",
		*mkind, coo.R, coo.NNZ(), coo.Density(), st.Format(), st.ResidentBytes(), *density, f.NNZ())
	fmt.Printf("config: %s %s %s, %s, %s backend\n", g, strings.ToUpper(*sw), hwc, bal, be.Name())
	if !be.Simulated() {
		// The native backend has no cycle model: the kernel ran for real
		// on the host, so wall-clock is the whole story.
		fmt.Printf("wall: %v on %d procs\n", res.Wall, runtime.GOMAXPROCS(0))
		return
	}
	fmt.Printf("cycles: %d (%.3g ms @ 1 GHz)\n", res.Cycles, float64(res.Cycles)/1e6)
	fmt.Printf("energy: %.4g J  avg power: %.4g W\n", res.EnergyJ, sim.Power(cfg, res.Stats))
	s := res.Stats
	fmt.Printf("events: alu=%d loads=%d (stream %d) stores=%d\n", s.ALUOps, s.Loads, s.StreamLoads, s.Stores)
	fmt.Printf("  L1 %d hits / %d misses, L2 %d hits / %d misses\n",
		s.L1Hits, s.L1Misses, s.L2Hits, s.L2Misses)
	fmt.Printf("  HBM %d read lines (%d queued cycles), %d write lines (%d queued cycles)\n",
		s.HBMLines, s.HBMQueued, s.HBMWriteLines, s.HBMWriteQueued)
	fmt.Printf("  SPM %d reads / %d writes, xbar %d hops, %d prefetches, %d writebacks\n",
		s.SPMReads, s.SPMWrites, s.XbarHops, s.Prefetches, s.Writebacks)
	fmt.Printf("  stall cycles (all PEs): %d\n", s.StallCycles)
	fmt.Printf("  L1 hit rate %.1f%%, L2 hit rate %.1f%%, HBM bandwidth %.2f GB/s, PE balance %.2f\n",
		100*s.L1HitRate(), 100*s.L2HitRate(), s.HBMBandwidthGBs(cfg.Params.BlockBytes), res.Balance)
	b := sim.EnergyBreakdown(cfg, s)
	fmt.Printf("energy breakdown: alu %.3g  spm %.3g  L1 %.3g  L2 %.3g  xbar %.3g  hbm %.3g  stores %.3g  static %.3g (J)\n",
		b.ALU, b.SPM, b.L1, b.L2, b.Xbar, b.HBM, b.Stores, b.Static)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "spmvrun: %v\n", err)
	os.Exit(1)
}
