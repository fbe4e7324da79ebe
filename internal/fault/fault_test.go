package fault

import (
	"sync"
	"testing"
	"time"
)

// decisions runs n Checks at a point and returns, per call, what
// happened: "ok", "err", or "panic".
func decisions(in *Injector, p Point, n int) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, func() (kind string) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(*PanicValue); !ok {
						panic(r) // a real bug, re-throw
					}
					kind = "panic"
				}
			}()
			if err := in.Check(p); err != nil {
				return "err"
			}
			return "ok"
		}())
	}
	return out
}

// TestDeterministicForSeed checks the fault sequence at a point is a
// pure function of the seed: same seed → identical decisions, another
// seed → a different sequence.
func TestDeterministicForSeed(t *testing.T) {
	rule := Rule{ErrRate: 0.3, PanicRate: 0.1}
	a := New(42).Arm(JobRun, rule)
	b := New(42).Arm(JobRun, rule)
	c := New(43).Arm(JobRun, rule)

	const n = 500
	da, db, dc := decisions(a, JobRun, n), decisions(b, JobRun, n), decisions(c, JobRun, n)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed diverged at call %d: %q vs %q", i, da[i], db[i])
		}
	}
	same := 0
	faults := 0
	for i := range da {
		if da[i] == dc[i] {
			same++
		}
		if da[i] != "ok" {
			faults++
		}
	}
	if same == n {
		t.Fatalf("different seeds produced identical %d-call sequences", n)
	}
	if faults == 0 || faults == n {
		t.Fatalf("degenerate fault count %d/%d for rates %+v", faults, n, rule)
	}
}

// TestPerPointStreamsIndependent checks interleaving calls at another
// point does not perturb a point's own sequence.
func TestPerPointStreamsIndependent(t *testing.T) {
	rule := Rule{ErrRate: 0.4}
	a := New(7).Arm(JobRun, rule).Arm(Iteration, rule)
	b := New(7).Arm(JobRun, rule)

	var da []string
	for i := 0; i < 200; i++ {
		da = append(da, decisions(a, JobRun, 1)...)
		a.Check(Iteration) // interleaved traffic on another point
		a.Check(Iteration)
	}
	db := decisions(b, JobRun, 200)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("cross-point interleaving changed call %d: %q vs %q", i, da[i], db[i])
		}
	}
}

// TestDisarmedIsNoOp checks nil injectors and unarmed points never
// inject and allocate nothing.
func TestDisarmedIsNoOp(t *testing.T) {
	var nilIn *Injector
	if err := nilIn.Check(JobRun); err != nil {
		t.Fatalf("nil injector injected: %v", err)
	}
	if nilIn.Armed(JobRun) || nilIn.Calls(JobRun) != 0 || nilIn.Faults(JobRun) != 0 {
		t.Fatal("nil injector claims state")
	}

	in := New(1).Arm(Iteration, Rule{ErrRate: 1})
	for i := 0; i < 100; i++ {
		if err := in.Check(JobRun); err != nil {
			t.Fatalf("unarmed point injected: %v", err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() { _ = in.Check(JobRun) })
	if allocs != 0 {
		t.Fatalf("disarmed Check allocates %v per call", allocs)
	}

	in.DisarmAll()
	if err := in.Check(Iteration); err != nil {
		t.Fatalf("DisarmAll left %s armed: %v", Iteration, err)
	}
}

// TestMaxFaultsCap checks the fault budget stops injection while calls
// keep flowing.
func TestMaxFaultsCap(t *testing.T) {
	in := New(3).Arm(EngineBuild, Rule{ErrRate: 1, MaxFaults: 2})
	errs := 0
	for i := 0; i < 50; i++ {
		if in.Check(EngineBuild) != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Fatalf("injected %d errors, want exactly MaxFaults=2", errs)
	}
	if got := in.Calls(EngineBuild); got != 50 {
		t.Fatalf("calls = %d, want 50", got)
	}
	if got := in.Faults(EngineBuild); got != 2 {
		t.Fatalf("faults = %d, want 2", got)
	}
}

// TestLatencyInjection checks armed latency actually delays.
func TestLatencyInjection(t *testing.T) {
	in := New(9).Arm(JobRun, Rule{LatencyRate: 1, Latency: 20 * time.Millisecond})
	t0 := time.Now()
	if err := in.Check(JobRun); err != nil {
		t.Fatalf("latency-only rule returned error: %v", err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Fatalf("latency injection slept only %v", d)
	}
}

// TestConcurrentChecksRace hammers one injector from many goroutines;
// run under -race this is the data-race check, and the total
// calls/faults accounting must balance.
func TestConcurrentChecksRace(t *testing.T) {
	in := New(11).Arm(JobRun, Rule{ErrRate: 0.5, PanicRate: 0.1})
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	var mu sync.Mutex
	total := map[string]int{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := decisions(in, JobRun, per)
			mu.Lock()
			for _, k := range d {
				total[k]++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if n := total["ok"] + total["err"] + total["panic"]; n != goroutines*per {
		t.Fatalf("decisions lost: %d != %d", n, goroutines*per)
	}
	if got := in.Calls(JobRun); got != goroutines*per {
		t.Fatalf("calls = %d, want %d", got, goroutines*per)
	}
	if got := in.Faults(JobRun); got != int64(total["err"]+total["panic"]) {
		t.Fatalf("faults = %d, want %d", got, total["err"]+total["panic"])
	}
}

// TestParseSpec round-trips the flag syntax.
func TestParseSpec(t *testing.T) {
	in, err := ParseSpec(42, "scheduler.job_run:err=0.5,panic=0.1,max=3; runtime.iteration:lat=1,latency=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Armed(JobRun) || !in.Armed(Iteration) || in.Armed(GraphBuild) {
		t.Fatal("wrong points armed")
	}

	if in, err := ParseSpec(1, ""); err != nil || in.Armed(JobRun) {
		t.Fatalf("empty spec: %v / armed=%v", err, in.Armed(JobRun))
	}

	for _, bad := range []string{
		"nosuch.point:err=0.5",
		"scheduler.job_run:bogus=1",
		"scheduler.job_run:err=1.5",
		"scheduler.job_run:err",
		"scheduler.job_run:lat=0.5",              // rate without duration
		"scheduler.job_run:err=1,transient=true", // no such key
	} {
		if _, err := ParseSpec(1, bad); err == nil {
			t.Errorf("spec %q parsed without error", bad)
		}
	}
}
