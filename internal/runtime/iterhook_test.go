package runtime

import (
	"context"
	"errors"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/sim"
)

// TestIterHookStopsRun checks a failing iteration hook stops the
// driver at the boundary it fired on, returning the partial report and
// the hook's error wrapped.
func TestIterHookStopsRun(t *testing.T) {
	boom := errors.New("injected")
	const stopAt = 2
	m := gen.PowerLaw(400, 2000, 0.55, gen.Pattern, 7)
	f, err := NewFromStore(m, Options{
		Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4},
		IterHook: func(iter int) error {
			if iter == stopAt {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	_, rep, err := lane0(f.PageRankBatch([]context.Context{context.Background()}, 1, 50, 0.15))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
	if rep == nil || len(rep.Iters) != stopAt {
		t.Fatalf("partial report has %d iterations, want %d", len(rep.Iters), stopAt)
	}
}

// TestIterHookNilIdentical checks an absent hook changes nothing: the
// run is cycle-identical to a hooked run whose hook never fires.
func TestIterHookNilIdentical(t *testing.T) {
	build := func(hook func(int) error) *Framework {
		m := gen.PowerLaw(400, 2000, 0.55, gen.Pattern, 7)
		f, err := NewFromStore(m, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}, IterHook: hook})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	calls := 0
	_, repA, err := lane0(build(nil).PageRankBatch(nil, 1, 5, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	_, repB, err := lane0(build(func(int) error { calls++; return nil }).PageRankBatch(nil, 1, 5, 0.15))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Fatalf("hook saw %d iterations, want 5", calls)
	}
	if repA.TotalCycles != repB.TotalCycles {
		t.Fatalf("hook changed cycles: %d vs %d", repA.TotalCycles, repB.TotalCycles)
	}
}
