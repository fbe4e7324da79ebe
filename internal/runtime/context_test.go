package runtime

import (
	"context"
	"errors"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

func testFramework(t *testing.T, onIter func(IterStat, *matrix.SparseVec)) *Framework {
	t.Helper()
	m := gen.PowerLaw(400, 2000, 0.55, gen.Pattern, 7)
	f, err := NewFromStore(m, Options{
		Geometry:    sim.Geometry{Tiles: 2, PEsPerTile: 4},
		OnIteration: onIter,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCancelBetweenIterations cancels the context from the iteration
// hook and checks the driver stops at the next iteration boundary,
// returning the partial report.
func TestCancelBetweenIterations(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 3
	f := testFramework(t, func(st IterStat, _ *matrix.SparseVec) {
		if st.Iter == stopAfter-1 {
			cancel()
		}
	})

	_, rep, err := lane0(f.PageRankBatch([]context.Context{ctx}, 1, 50, 0.15))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Iters) != stopAfter {
		t.Fatalf("partial report has %d iterations, want exactly %d", len(rep.Iters), stopAfter)
	}
}

// TestDeadlineAlreadyExpired checks an expired context stops the run
// before the first SpMV.
func TestDeadlineAlreadyExpired(t *testing.T) {
	f := testFramework(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := lane0(f.SSSPBatch([]context.Context{ctx}, []int32{0}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if rep == nil || len(rep.Iters) != 0 {
		t.Fatalf("expected an empty partial report, got %v", rep)
	}
}

// TestContextVariantsMatchPlain checks that a live context changes
// nothing: a one-lane run under a cancellable context that never fires
// produces identical results and cycle counts to one with no context
// (nil ctxs, which default to Background).
func TestContextVariantsMatchPlain(t *testing.T) {
	f := testFramework(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	live := []context.Context{ctx}

	plainDist, plainRep, err := lane0(f.SSSPBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	ctxDist, ctxRep, err := lane0(f.SSSPBatch(live, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	if plainRep.TotalCycles != ctxRep.TotalCycles {
		t.Fatalf("cycles differ: %d vs %d", plainRep.TotalCycles, ctxRep.TotalCycles)
	}
	for i := range plainDist {
		if plainDist[i] != ctxDist[i] {
			t.Fatalf("distance %d differs: %v vs %v", i, plainDist[i], ctxDist[i])
		}
	}

	bres, brep, err := lane0(f.BFSBatch(live, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	bres2, brep2, err := lane0(f.BFSBatch(nil, []int32{0}))
	if err != nil {
		t.Fatal(err)
	}
	if brep.TotalCycles != brep2.TotalCycles {
		t.Fatalf("BFS cycles differ: %d vs %d", brep.TotalCycles, brep2.TotalCycles)
	}
	for i := range bres.Level {
		if bres.Level[i] != bres2.Level[i] {
			t.Fatalf("BFS level %d differs", i)
		}
	}
}

// TestBFSContextCancelPartial cancels BFS mid-traversal and checks the
// error carries the iteration count it stopped at.
func TestBFSContextCancelPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	f := testFramework(t, func(st IterStat, _ *matrix.SparseVec) {
		if st.Iter == 0 {
			cancel()
		}
	})
	_, rep, err := lane0(f.BFSBatch([]context.Context{ctx}, []int32{0}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if rep == nil || len(rep.Iters) != 1 {
		t.Fatalf("partial BFS report has %d iters, want 1", len(rep.Iters))
	}
}
