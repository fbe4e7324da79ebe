package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{50, 3}, {95, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty sample should read 0")
	}
}

// A percentile is reported as resolved only with ten samples beyond it.
func TestSampleCountRule(t *testing.T) {
	if tailResolved(199, 95) {
		t.Error("p95 of 199 samples has only 9 beyond it")
	}
	if !tailResolved(200, 95) {
		t.Error("p95 of 200 samples has 10 beyond it")
	}
	if got := samplesBeyond(1000, 99); got != 10 {
		t.Errorf("samplesBeyond(1000, 99) = %d, want 10", got)
	}
	if tailResolved(19, 50) || !tailResolved(20, 50) {
		t.Error("the median needs 20 samples to have 10 beyond it")
	}
}

// The spread must be the one the driver computes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8}); q1 != 1.25 || q3 != 7 {
		t.Errorf("quartiles(1,2,4,8) = %g, %g; Python gives 1.25, 7", q1, q3)
	}
	if spread([]float64{1, 2, 3}) != 0 {
		t.Error("three values have no spread to speak of")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped to the parent
		{ID: 5, Parent: 2, Name: "a.1", Start: 12, End: 20}, // a grandchild covers a, not the job
		{ID: 6, Parent: 1, Name: "d", Start: 200, End: 300}, // wholly outside: covers nothing
	}
	selfTimes(spans)
	want := map[int]int64{1: 100 - (40 + 10), 2: 20 - 8, 3: 30, 4: 30, 5: 8, 6: 100}
	for _, s := range spans {
		if s.SelfNs != want[s.ID] {
			t.Errorf("span %d (%s): self %d, want %d", s.ID, s.Name, s.SelfNs, want[s.ID])
		}
	}
	if got := worstJobSelfShare(spans); got != 0.5 {
		t.Errorf("worst job self share = %g, want 0.5", got)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, 0, "x")
	tr.end(id)
	if id != 0 || tr.add(0, 0, "y", time.Now(), time.Now()) != 0 {
		t.Error("a nil tracer must hand out id 0")
	}
}

// fakeClock only moves when told to.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	// A send costs 1 ms, except request 2, which stalls for 25 ms.
	var dues, lates []time.Duration
	n := runSchedule(clk, start, 10*time.Millisecond, 1, start.Add(60*time.Millisecond), func(i int, due, sent time.Time) {
		dues = append(dues, due.Sub(start))
		lates = append(lates, sent.Sub(due))
		cost := time.Millisecond
		if i == 2 {
			cost = 25 * time.Millisecond
		}
		clk.Sleep(cost)
	})
	if n != 6 {
		t.Fatalf("fired %d requests, want 6 (due at 0..50 ms)", n)
	}
	for i, d := range dues {
		if want := time.Duration(i) * 10 * time.Millisecond; d != want {
			t.Errorf("request %d stamped due at %v, want %v: due times must not move with the stall", i, d, want)
		}
	}
	// The stall ends at 45 ms: requests 3 and 4 go out late, 5 is on time.
	wantLate := []time.Duration{0, 0, 0, 15 * time.Millisecond, 6 * time.Millisecond, 0}
	for i := range wantLate {
		if lates[i] != wantLate[i] {
			t.Errorf("request %d late by %v, want %v", i, lates[i], wantLate[i])
		}
	}
}

func TestOpenLoopBurstsShareADueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	var dues []time.Duration
	n := runSchedule(clk, start, 20*time.Millisecond, 2, start.Add(50*time.Millisecond), func(i int, due, sent time.Time) {
		dues = append(dues, due.Sub(start))
		clk.Sleep(time.Millisecond)
	})
	want := []time.Duration{0, 0, 20 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond}
	if n != len(want) {
		t.Fatalf("fired %d requests, want %d", n, len(want))
	}
	for i := range want {
		if dues[i] != want[i] {
			t.Errorf("request %d due at %v, want %v", i, dues[i], want[i])
		}
	}
}

func TestLevelsFromLigraParents(t *testing.T) {
	inf := float32(math.Inf(1))
	// 0 -> 1 -> 2, 0 -> 3, 4 unreachable.
	parents := []float32{0, 0, 1, 0, inf}
	if v, ok := levelsAgree([]int32{0, 1, 2, 1, -1}, parents, 0); !ok {
		t.Errorf("levels should agree, first difference at %d", v)
	}
	if v, ok := levelsAgree([]int32{0, 1, 1, 1, -1}, parents, 0); ok || v != 2 {
		t.Errorf("a wrong level at vertex 2 went unnoticed (got %d, %v)", v, ok)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "job_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "sim_cycles", Better: "lower", Bound: 0.10, Exact: true}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c * 1.005, c * 0.995} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.9, c, c * 1.1, c * 1.3} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		same bool
		want verdict
	}{
		{"unchanged", lower, tight(100), tight(101), true, verdictOK},
		{"slower beyond the bound", lower, tight(100), tight(115), true, verdictRegress},
		{"faster", lower, tight(100), tight(80), true, verdictOK},
		{"throughput down", higher, tight(100), tight(85), true, verdictRegress},
		{"throughput up", higher, tight(100), tight(120), true, verdictOK},
		{"wide and interleaved", lower, wide(100), wide(104), true, verdictUnresolved},
		{"wide but every run better", lower, wide(100), wide(40), true, verdictOK},
		{"wide and every run worse", lower, wide(100), wide(250), true, verdictRegress},
		{"exact and equal", exact, []float64{7, 7}, []float64{7}, true, verdictOK},
		{"exact and moved by one", exact, []float64{7, 7}, []float64{8}, true, verdictRegress},
		{"exact across seeds is judged by its bound", exact, []float64{100}, []float64{104}, false, verdictOK},
		{"single runs", lower, []float64{100}, []float64{120}, true, verdictRegress},
	} {
		if got := judge(c.d, c.a, c.b, c.same); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
