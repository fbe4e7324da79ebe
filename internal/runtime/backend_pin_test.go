package runtime

import (
	"context"
	"fmt"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/sim"
)

// pinnedIter is one expected Fig. 9-style trace row.
type pinnedIter struct {
	iter     int
	nnzF     int
	decision string
	kernel   int64
	merge    int64
	conv     int64
	total    int64
}

// pinnedRun pins one algorithm run's full timing trace.
type pinnedRun struct {
	name   string
	sw     SWChoice
	hw     HWChoice
	run    func(t *testing.T, f *Framework) *Report
	total  int64
	energy float64
	iters  []pinnedIter
}

// The expected values below were captured on the pre-refactor tree
// (commit 286166e), before the kernels were split behind the
// execution-backend interface. The sim backend must reproduce every
// per-iteration cycle count bit-for-bit: the probe-instantiated pass
// bodies issue the exact same event sequence the interleaved kernels
// did, so any drift here means the refactor changed simulated behavior.
// The two fused PPR rows were captured at commit cd34804, while solo
// and blocked IP passes were still separate bodies. The BC row was
// captured when BC became two lanes of the iteration loop: a σ lane
// (iterations 0–5, the BFS row's frontiers and cycles) and a δ lane on
// the reversed graph, whose first pass pays a reconfiguration.
var pinnedRuns = []pinnedRun{
	{
		name: "BFS",
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.BFSBatch(nil, []int32{0}))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 93756, energy: 3.35284544e-05,
		iters: []pinnedIter{
			{0, 1, "OP/PC", 653, 227, 0, 880},
			{1, 6, "OP/PC", 3161, 1094, 0, 4255},
			{2, 347, "IP/SCS", 24113, 3927, 1122, 29172},
			{3, 2062, "IP/SCS", 26360, 2622, 1963, 30945},
			{4, 569, "IP/SCS", 23409, 1011, 2276, 26696},
			{5, 4, "OP/PC", 1298, 500, 0, 1808},
		},
	},
	{
		name: "SSSP",
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 324316, energy: 0.000115467929,
		iters: []pinnedIter{
			{0, 1, "OP/PC", 857, 227, 0, 1084},
			{1, 6, "OP/PC", 3972, 1094, 0, 5066},
			{2, 347, "IP/SCS", 24299, 4209, 1122, 29640},
			{3, 2178, "IP/SCS", 29037, 4355, 2024, 35416},
			{4, 2314, "IP/SCS", 30679, 4248, 2957, 37884},
			{5, 1795, "IP/SCS", 28381, 3274, 2653, 34308},
			{6, 1375, "IP/SCS", 26741, 3911, 2397, 33049},
			{7, 944, "IP/SCS", 25515, 2794, 2144, 30453},
			{8, 670, "IP/SCS", 24171, 2696, 1736, 28603},
			{9, 440, "IP/SCS", 23246, 2097, 1600, 26943},
			{10, 251, "IP/SCS", 22391, 1687, 1317, 25395},
			{11, 124, "IP/SCS", 22686, 1137, 1711, 25534},
			{12, 38, "OP/PC", 5308, 873, 0, 6191},
			{13, 9, "OP/PC", 2168, 706, 0, 2874},
			{14, 3, "OP/PC", 1386, 490, 0, 1876},
		},
	},
	{
		name: "PR",
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.PageRankBatch(nil, 1, 5, 0.15))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 228247, energy: 6.22540422e-05,
		iters: []pinnedIter{
			{0, 3000, "IP/SCS", 44063, 1612, 0, 45675},
			{1, 3000, "IP/SCS", 44063, 1580, 0, 45643},
			{2, 3000, "IP/SCS", 44063, 1580, 0, 45643},
			{3, 3000, "IP/SCS", 44063, 1580, 0, 45643},
			{4, 3000, "IP/SCS", 44063, 1580, 0, 45643},
		},
	},
	{
		name: "CF",
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.CFBatch(nil, 1, 3, 0.05, 0.01))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 114774, energy: 3.39184862e-05,
		iters: []pinnedIter{
			{0, 3000, "IP/SCS", 36678, 1580, 0, 38258},
			{1, 3000, "IP/SCS", 36678, 1580, 0, 38258},
			{2, 3000, "IP/SCS", 36678, 1580, 0, 38258},
		},
	},
	{
		name: "BC",
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := f.BC(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 189029, energy: 6.73508296e-05,
		iters: []pinnedIter{
			{0, 1, "OP/PC", 653, 227, 0, 880},
			{1, 6, "OP/PC", 3161, 1094, 0, 4255},
			{2, 347, "IP/SCS", 24113, 3927, 1122, 29172},
			{3, 2062, "IP/SCS", 26360, 2622, 1963, 30945},
			{4, 569, "IP/SCS", 23409, 1011, 2276, 26696},
			{5, 4, "OP/PC", 1298, 500, 0, 1808},
			{6, 4, "OP/PC", 871, 219, 0, 1090},
			{7, 569, "IP/SCS", 22372, 3738, 1379, 27499},
			{8, 2062, "IP/SCS", 26674, 3913, 2243, 32830},
			{9, 347, "IP/SCS", 23657, 3546, 2113, 29316},
			{10, 6, "OP/PC", 3527, 1001, 0, 4538},
		},
	},
	{
		// Forced off-diagonal configuration: exercises the OP kernel
		// under PS (SPM-resident heap) on every iteration.
		name: "SSSP-forced-OP-PS",
		sw:   ForceOP, hw: ForcePS,
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.SSSPBatch(nil, []int32{0}))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 1882387, energy: 0.000431114148,
		iters: []pinnedIter{
			{0, 1, "OP/PS", 765, 226, 0, 991},
			{1, 6, "OP/PS", 3871, 1151, 0, 5022},
			{2, 347, "OP/PS", 100912, 3893, 0, 104805},
			{3, 2178, "OP/PS", 452998, 4302, 0, 457300},
			{4, 2314, "OP/PS", 436372, 4314, 0, 440686},
			{5, 1796, "OP/PS", 301141, 3745, 0, 304886},
			{6, 1373, "OP/PS", 213927, 4015, 0, 217942},
			{7, 946, "OP/PS", 131234, 3733, 0, 134967},
			{8, 669, "OP/PS", 94564, 2894, 0, 97458},
			{9, 440, "OP/PS", 57658, 2250, 0, 59908},
			{10, 251, "OP/PS", 29883, 1706, 0, 31589},
			{11, 124, "OP/PS", 14556, 1194, 0, 15750},
			{12, 38, "OP/PS", 5429, 815, 0, 6244},
			{13, 9, "OP/PS", 2355, 689, 0, 3044},
			{14, 3, "OP/PS", 1299, 496, 0, 1795},
		},
	},
	{
		// Forced IP/SC: exercises the cache-only (no SPM fill) IP path.
		name: "PR-forced-IP-SC",
		sw:   ForceIP, hw: ForceSC,
		run: func(t *testing.T, f *Framework) *Report {
			_, rep, err := lane0(f.PageRankBatch(nil, 1, 3, 0.15))
			if err != nil {
				t.Fatal(err)
			}
			return rep
		},
		total: 139031, energy: 3.59645086e-05,
		iters: []pinnedIter{
			{0, 3000, "IP/SC", 44783, 1562, 0, 46345},
			{1, 3000, "IP/SC", 44783, 1560, 0, 46343},
			{2, 3000, "IP/SC", 44783, 1560, 0, 46343},
		},
	},
	{
		// Lane 0 of a fused 2-lane PPR: one lane block, frontiers read
		// from cacheable memory even though the decision says SCS.
		name:  "PPR-fused-2",
		run:   pprLane0(2),
		total: 197922, energy: 3.93709132e-05,
		iters: []pinnedIter{
			{0, 3000, "IP/SCS", 64545, 1367, 0, 65912},
			{1, 3000, "IP/SCS", 64545, 1383, 0, 65928},
			{2, 3000, "IP/SCS", 64545, 1537, 0, 66082},
		},
	},
	{
		// Lane 0 of a fused 9-lane PPR: a full lane block plus a
		// one-lane block, which must not stage SCS like a solo run.
		name:  "PPR-fused-9",
		run:   pprLane0(9),
		total: 281715, energy: 5.59273129e-05,
		iters: []pinnedIter{
			{0, 3000, "IP/SCS", 92476, 1367, 0, 93843},
			{1, 3000, "IP/SCS", 92476, 1383, 0, 93859},
			{2, 3000, "IP/SCS", 92476, 1537, 0, 94013},
		},
	},
}

// pprLane0 runs a k-lane fused PPR(3) from sources 0, 7, 14, … and
// returns lane 0's report.
func pprLane0(k int) func(t *testing.T, f *Framework) *Report {
	return func(t *testing.T, f *Framework) *Report {
		srcs := make([]int32, k)
		for i := range srcs {
			srcs[i] = int32(i * 7)
		}
		_, reps, errs := f.PPRBatch(nil, srcs, 3, 0.15)
		if errs[0] != nil {
			t.Fatal(errs[0])
		}
		return reps[0]
	}
}

// TestSimBackendTimingsPinned asserts that the sim backend reproduces
// the pre-refactor iteration timings exactly, both through the default
// (nil) backend and through an explicit exec.Sim().
func TestSimBackendTimingsPinned(t *testing.T) {
	for _, backend := range []struct {
		label string
		be    exec.Backend
	}{{"default", nil}, {"explicit-sim", exec.Sim()}} {
		for _, pr := range pinnedRuns {
			pr := pr
			t.Run(backend.label+"/"+pr.name, func(t *testing.T) {
				m := gen.PowerLaw(3000, 30000, 0.55, gen.UniformWeight, 7)
				f, err := NewFromStore(m, Options{
					Geometry: sim.Geometry{Tiles: 4, PEsPerTile: 4},
					SW:       pr.sw,
					HW:       pr.hw,
					Backend:  backend.be,
				})
				if err != nil {
					t.Fatal(err)
				}
				rep := pr.run(t, f)
				if rep.Backend != "sim" {
					t.Fatalf("Report.Backend = %q, want %q", rep.Backend, "sim")
				}
				if rep.TotalCycles != pr.total {
					t.Errorf("TotalCycles = %d, want %d", rep.TotalCycles, pr.total)
				}
				if rep.TotalWall != 0 {
					t.Errorf("TotalWall = %v, want 0 on the sim backend", rep.TotalWall)
				}
				// The capture printed energy with %.9g; compare at that
				// precision rather than pretending to more digits.
				if got, want := fmt.Sprintf("%.9g", rep.EnergyJ), fmt.Sprintf("%.9g", pr.energy); got != want {
					t.Errorf("EnergyJ = %s, want %s", got, want)
				}
				if len(rep.Iters) != len(pr.iters) {
					t.Fatalf("iterations = %d, want %d", len(rep.Iters), len(pr.iters))
				}
				for i, want := range pr.iters {
					got := rep.Iters[i]
					if got.Iter != want.iter || got.FrontierNNZ != want.nnzF ||
						got.Decision.String() != want.decision ||
						got.KernelCycles != want.kernel || got.MergeCycles != want.merge ||
						got.ConvCycles != want.conv || got.TotalCycles != want.total {
						t.Errorf("iter %d: got {%d %d %q k=%d m=%d c=%d t=%d}, want {%d %d %q k=%d m=%d c=%d t=%d}",
							i, got.Iter, got.FrontierNNZ, got.Decision.String(),
							got.KernelCycles, got.MergeCycles, got.ConvCycles, got.TotalCycles,
							want.iter, want.nnzF, want.decision, want.kernel, want.merge, want.conv, want.total)
					}
				}
			})
		}
	}
}
