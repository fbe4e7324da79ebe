package runtime

import (
	"testing"

	"cosparse/internal/gen"
)

func TestIterRingKeepsMostRecent(t *testing.T) {
	r := newIterRing(8)
	for i := 0; i < 20; i++ {
		r.push(IterStat{Iter: i, TotalCycles: int64(i)})
	}
	got := r.slice()
	if len(got) != 8 || r.total != 20 || r.dropped != 12 {
		t.Fatalf("len=%d total=%d dropped=%d, want 8/20/12", len(got), r.total, r.dropped)
	}
	for i, st := range got {
		if st.Iter != 12+i {
			t.Fatalf("entry %d has Iter=%d, want %d (most recent window, in order)", i, st.Iter, 12+i)
		}
	}
}

func TestIterRingUnbounded(t *testing.T) {
	r := newIterRing(0)
	for i := 0; i < 100; i++ {
		r.push(IterStat{Iter: i})
	}
	if got := r.slice(); len(got) != 100 || r.dropped != 0 {
		t.Fatalf("unbounded ring dropped entries: len=%d dropped=%d", len(got), r.dropped)
	}
}

func TestTraceCapBoundsReportWithExactTotals(t *testing.T) {
	// The bounded trace must keep the most recent iterations while the
	// cycle/energy totals stay exact — identical to an unbounded run.
	m := gen.Uniform(1000, 10000, gen.Pattern, 4)
	run := func(cap int) *Report {
		f := newFW(t, m, Options{traceCap: cap})
		_, rep, err := lane0(f.PageRankBatch(nil, 1, 20, 0.15))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := run(-1) // unbounded
	capped := run(8)

	if full.TotalIters != 20 || len(full.Iters) != 20 || full.DroppedIters != 0 {
		t.Fatalf("unbounded run: TotalIters=%d len=%d dropped=%d", full.TotalIters, len(full.Iters), full.DroppedIters)
	}
	if capped.TotalIters != 20 || len(capped.Iters) != 8 || capped.DroppedIters != 12 {
		t.Fatalf("capped run: TotalIters=%d len=%d dropped=%d, want 20/8/12",
			capped.TotalIters, len(capped.Iters), capped.DroppedIters)
	}
	for i, st := range capped.Iters {
		if st.Iter != 12+i {
			t.Fatalf("capped trace entry %d is iteration %d, want %d", i, st.Iter, 12+i)
		}
		if st != full.Iters[12+i] {
			t.Fatalf("capped trace entry for iteration %d differs from the unbounded run", st.Iter)
		}
	}
	if capped.TotalCycles != full.TotalCycles || capped.EnergyJ != full.EnergyJ {
		t.Fatalf("totals drifted under capping: cycles %d vs %d, energy %g vs %g",
			capped.TotalCycles, full.TotalCycles, capped.EnergyJ, full.EnergyJ)
	}
}
