package cosparse

import (
	"context"
	"errors"
	"math"
	"testing"
)

// Fused-vs-solo equivalence: a k-lane batched run must produce, for
// every lane, exactly the bits a solo run of the same job produces —
// on both backends. The fused kernels keep per-lane accumulator state
// and per-lane flush schedules, so each lane's float32 operation order
// is the solo order; these tests hold that contract end to end through
// the runtime batch driver (convergence, decision tree, merges,
// per-lane detachment).

// batchSources deliberately includes a duplicate (two users asking for
// the same source must each get their own lane and result).
var batchSources = []int32{0, 3, 7, 3, 11}

func batchEngine(t *testing.T, backend Backend) *Engine {
	t.Helper()
	g, err := GeneratePowerLaw(1200, 15000, Weighted, 9)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 4, PEsPerTile: 4}, WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func eachBackend(t *testing.T, fn func(t *testing.T, backend Backend)) {
	for _, be := range []struct {
		name    string
		backend Backend
	}{{"sim", SimBackend}, {"native", NativeBackend}} {
		t.Run(be.name, func(t *testing.T) { fn(t, be.backend) })
	}
}

// bitsEqual compares float32 slices bit-for-bit (Inf==Inf, and any
// rounding difference is a failure).
func bitsEqual(t *testing.T, what string, lane int, fused, solo []float32) {
	t.Helper()
	if len(fused) != len(solo) {
		t.Fatalf("%s lane %d: fused len %d, solo len %d", what, lane, len(fused), len(solo))
	}
	for v := range fused {
		if math.Float32bits(fused[v]) != math.Float32bits(solo[v]) {
			t.Fatalf("%s lane %d vertex %d: fused %g (%#x), solo %g (%#x)",
				what, lane, v, fused[v], math.Float32bits(fused[v]), solo[v], math.Float32bits(solo[v]))
		}
	}
}

func TestBatchEquivalenceBFS(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend Backend) {
		eng := batchEngine(t, backend)
		fused, reps, errs := eng.BFSBatch(nil, batchSources)
		for i, src := range batchSources {
			if errs[i] != nil {
				t.Fatalf("lane %d: %v", i, errs[i])
			}
			if reps[i] == nil || reps[i].TotalIterations == 0 {
				t.Fatalf("lane %d: missing per-lane report", i)
			}
			solo, _, err := eng.BFSContext(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			for v := range solo.Parent {
				if fused[i].Parent[v] != solo.Parent[v] || fused[i].Level[v] != solo.Level[v] {
					t.Fatalf("lane %d vertex %d: fused parent/level %d/%d, solo %d/%d",
						i, v, fused[i].Parent[v], fused[i].Level[v], solo.Parent[v], solo.Level[v])
				}
			}
		}
	})
}

func TestBatchEquivalenceSSSP(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend Backend) {
		eng := batchEngine(t, backend)
		fused, _, errs := eng.SSSPBatch(nil, batchSources)
		for i, src := range batchSources {
			if errs[i] != nil {
				t.Fatalf("lane %d: %v", i, errs[i])
			}
			solo, _, err := eng.SSSPContext(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "sssp", i, fused[i], solo)
		}
	})
}

func TestBatchEquivalencePPR(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend Backend) {
		eng := batchEngine(t, backend)
		fused, _, errs := eng.PersonalizedPageRankBatch(nil, batchSources, 10, 0.15)
		for i, src := range batchSources {
			if errs[i] != nil {
				t.Fatalf("lane %d: %v", i, errs[i])
			}
			solo, _, err := eng.PersonalizedPageRankContext(context.Background(), src, 10, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "ppr", i, fused[i], solo)
		}
	})
}

// A lane whose seed differs must get a different distribution — guard
// against lanes accidentally sharing vectors.
func TestBatchPPRLanesDiffer(t *testing.T) {
	eng := batchEngine(t, NativeBackend)
	fused, _, errs := eng.PersonalizedPageRankBatch(nil, []int32{0, 3}, 10, 0.15)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lane %d: %v", i, err)
		}
	}
	same := true
	for v := range fused[0] {
		if fused[0][v] != fused[1][v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("PPR lanes with different seeds produced identical vectors")
	}
}

// A lane cancelled mid-batch fails alone with a context error; the
// surviving lanes still finish bit-identical to solo runs.
func TestBatchEquivalenceCancelledLane(t *testing.T) {
	eachBackend(t, func(t *testing.T, backend Backend) {
		g, err := GeneratePowerLaw(1200, 15000, Weighted, 9)
		if err != nil {
			t.Fatal(err)
		}
		victimCtx, cancel := context.WithCancel(context.Background())
		defer cancel()
		eng, err := New(g, System{Tiles: 4, PEsPerTile: 4}, WithBackend(backend),
			WithIterationHook(func(iter int) error {
				if iter == 2 {
					cancel()
				}
				return nil
			}))
		if err != nil {
			t.Fatal(err)
		}
		seeds := []int32{0, 3, 7}
		victim := 1
		ctxs := []context.Context{nil, victimCtx, nil}
		fused, reps, errs := eng.PersonalizedPageRankBatch(ctxs, seeds, 10, 0.15)

		if errs[victim] == nil {
			t.Fatal("cancelled lane reported no error")
		}
		if !errors.Is(errs[victim], context.Canceled) {
			t.Fatalf("cancelled lane error = %v, want context.Canceled", errs[victim])
		}
		if fused[victim] != nil {
			t.Fatal("cancelled lane still delivered a result")
		}
		if reps[victim] == nil || reps[victim].TotalIterations >= 10 {
			t.Fatalf("cancelled lane report = %+v, want a partial trace", reps[victim])
		}

		soloEng := batchEngine(t, backend)
		for _, i := range []int{0, 2} {
			if errs[i] != nil {
				t.Fatalf("surviving lane %d: %v", i, errs[i])
			}
			solo, _, err := soloEng.PersonalizedPageRankContext(context.Background(), seeds[i], 10, 0.15)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, "ppr-survivor", i, fused[i], solo)
		}
	})
}
