package runtime

import (
	"context"
	"errors"
	"reflect"
	goruntime "runtime"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

func batchTestFramework(t *testing.T, hw HWChoice) *Framework {
	t.Helper()
	m := gen.PowerLaw(1200, 12000, 0.55, gen.UniformWeight, 7)
	f, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 4, PEsPerTile: 4}, HW: hw})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameRun requires two reports to describe the same run: totals, the
// memory-system Stats and every per-iteration trace row.
func sameRun(t *testing.T, what string, got, want *Report) {
	t.Helper()
	if got.TotalCycles != want.TotalCycles || got.EnergyJ != want.EnergyJ {
		t.Errorf("%s: %d cycles / %g J, solo %d cycles / %g J",
			what, got.TotalCycles, got.EnergyJ, want.TotalCycles, want.EnergyJ)
	}
	if got.Stats != want.Stats {
		t.Errorf("%s: Stats %+v, solo %+v", what, got.Stats, want.Stats)
	}
	if !reflect.DeepEqual(got.Iters, want.Iters) {
		t.Errorf("%s: per-iteration trace differs from solo", what)
	}
}

func sameVals(t *testing.T, what string, got, want matrix.Dense) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: values differ from solo", what)
	}
}

// TestBatchOfOneIsSolo pins the one-lane accounting: a lane whose
// companion drops out before its first round runs every round alone
// and books exactly what the one-lane call (every solo run) books —
// same values, cycles, energy, Stats and trace — under every IP
// hardware mode, SCS's scratchpad model included (the blocked
// multi-vector pass has none, so a lone lane must not go through it).
func TestBatchOfOneIsSolo(t *testing.T) {
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs := []context.Context{nil, dead} // lane 1 stops before its first round
	dropped := func(t *testing.T, what string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled lane err = %v", what, err)
		}
	}
	for _, hw := range []struct {
		name string
		hw   HWChoice
	}{{"auto", AutoHW}, {"SC", ForceSC}, {"SCS", ForceSCS}} {
		t.Run(hw.name, func(t *testing.T) {
			f := batchTestFramework(t, hw.hw)

			soloPR, soloRep, err := lane0(f.PageRankBatch(nil, 1, 3, 0.15))
			if err != nil {
				t.Fatal(err)
			}
			prs, reps, errs := f.PageRankBatch(ctxs, 2, 3, 0.15)
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			dropped(t, "PR", errs[1])
			sameVals(t, "PR", prs[0], soloPR)
			sameRun(t, "PR", reps[0], soloRep)
			if soloRep.Stats.HBMLines == 0 {
				t.Error("PR: solo report carries no memory Stats")
			}

			soloBFS, soloRep, err := lane0(f.BFSBatch(nil, []int32{0}))
			if err != nil {
				t.Fatal(err)
			}
			bfs, reps, errs := f.BFSBatch(ctxs, []int32{0, 74})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			dropped(t, "BFS", errs[1])
			if !reflect.DeepEqual(bfs[0], soloBFS) {
				t.Error("BFS: parents/levels differ from solo")
			}
			sameRun(t, "BFS", reps[0], soloRep)

			soloDist, soloRep, err := lane0(f.SSSPBatch(nil, []int32{0}))
			if err != nil {
				t.Fatal(err)
			}
			dists, reps, errs := f.SSSPBatch(ctxs, []int32{0, 74})
			if errs[0] != nil {
				t.Fatal(errs[0])
			}
			dropped(t, "SSSP", errs[1])
			sameVals(t, "SSSP", dists[0], soloDist)
			sameRun(t, "SSSP", reps[0], soloRep)
		})
	}
}

// TestDivergedLaneKeepsSoloAccounting covers the other one-lane
// sub-group: in a k > 1 round, a lane whose decision differs from every
// other lane's runs its kernel alone and must book exactly what the
// solo run books for that iteration.
func TestDivergedLaneKeepsSoloAccounting(t *testing.T) {
	f := batchTestFramework(t, AutoHW)
	srcs := []int32{0, 74} // the hub 74 reaches the dense phase one hop sooner
	_, reps, errs := f.BFSBatch(nil, srcs)
	var solo [2]*Report
	for i, src := range srcs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		var err error
		if _, solo[i], err = lane0(f.BFSBatch(nil, []int32{src})); err != nil {
			t.Fatal(err)
		}
	}
	diverged := 0
	for i := range srcs {
		other := reps[1-i].Iters
		for it, st := range reps[i].Iters {
			if it < len(other) && other[it].Decision == st.Decision {
				continue // shared a kernel pass: cost was apportioned
			}
			diverged++
			if !reflect.DeepEqual(st, solo[i].Iters[it]) {
				t.Errorf("lane %d iter %d ran alone but books %+v, solo %+v", i, it, st, solo[i].Iters[it])
			}
		}
	}
	if diverged == 0 {
		t.Fatal("no round diverged: pick sources whose frontiers grow out of step")
	}
}

// TestNativePageRankSteadyStateAllocs guards the lane-owned kernel
// scratch: once the partition is decoded, a native PageRank(10) on a
// 65536-vertex graph may allocate its rank vector, one contribution
// buffer and one pre-pass buffer (0.75 MB) plus bookkeeping — not a
// fresh pair of vectors per iteration (5.5 MB before the scratch).
func TestNativePageRankSteadyStateAllocs(t *testing.T) {
	const n = 1 << 16
	m := gen.PowerLaw(n, 4*n, 0.55, gen.Pattern, 5)
	f, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 4, PEsPerTile: 4}, Backend: exec.Native()})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, _, err := lane0(f.PageRankBatch(nil, 1, 10, 0.15)); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: decodes the partition
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	run()
	goruntime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 1<<20 {
		t.Fatalf("steady-state native PageRank(10) allocated %d bytes, want <= 1 MiB", got)
	}
}
