package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"cosparse/internal/fault"
)

// TestDrainGraceful drives the full drain contract through the
// service's drain entry point (the same path cmd/cosparsed takes on
// SIGTERM): /readyz flips to 503, new submissions bounce with 503,
// queued jobs fail with a drain error, and the in-flight job runs to
// completion so Drain returns nil.
func TestDrainGraceful(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 71)

	entered := make(chan *Job, 1)
	release := make(chan struct{})
	svc.sched.beforeRun = func(j *Job) {
		entered <- j
		<-release
	}

	submit := func() JobStatus {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		return st
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil); code != http.StatusOK {
		t.Fatalf("readyz before drain: %d, want 200", code)
	}

	running := submit()
	<-entered // the single worker now holds the running job at the gate
	queued1, queued2 := submit(), submit()

	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(context.Background()) }()

	// The readiness probe flips as soon as the drain starts.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, nil); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Queued jobs are failed without running.
	for _, q := range []JobStatus{queued1, queued2} {
		waitJob(t, svc, q.ID)
		st := svc.sched.Get(q.ID).Status()
		if st.State != JobFailed || !strings.Contains(st.Error, "draining") {
			t.Fatalf("queued job %s: state %q err %q, want failed/draining", q.ID, st.State, st.Error)
		}
		if st.Started != nil {
			t.Fatalf("queued job %s ran during drain (started %v)", q.ID, st.Started)
		}
	}

	// New submissions bounce with 503.
	var e errorBody
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr"}, &e); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: %d (%+v), want 503", code, e)
	}
	if !strings.Contains(e.Error, "draining") {
		t.Fatalf("drain rejection error = %q", e.Error)
	}

	// The in-flight job finishes and the drain completes cleanly.
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never completed")
	}
	if st := svc.sched.Get(running.ID).Status(); st.State != JobDone {
		t.Fatalf("in-flight job %s: state %q err %q, want done", running.ID, st.State, st.Error)
	}
	if got := svc.m.WorkersAlive.Load(); got != 0 {
		t.Fatalf("workers alive after drain = %d, want 0", got)
	}
}

// TestDrainDeadline holds a job that never finishes on its own and
// checks an expiring drain context cancels it rather than hanging
// shutdown forever.
func TestDrainDeadline(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 73)

	entered := make(chan *Job, 1)
	svc.sched.beforeRun = func(j *Job) {
		entered <- j
		<-j.ctx.Done() // simulates a run that only stops when cancelled
	}

	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := svc.Drain(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded", err)
	}
	waitJob(t, svc, st.ID)
	got := svc.sched.Get(st.ID).Status()
	if got.State != JobCancelled && got.State != JobFailed {
		t.Fatalf("stuck job state after forced drain = %q", got.State)
	}
}

// TestBodyLimit413 checks the request-body cap maps to 413, not 400.
func TestBodyLimit413(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 1024})

	var e errorBody
	big := GraphSpec{Kind: "edgelist", EdgeList: strings.Repeat("0 1\n", 2048)}
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", big, &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d (%+v), want 413", code, e)
	}
	if !strings.Contains(e.Error, "1024") {
		t.Fatalf("413 error should name the limit, got %q", e.Error)
	}

	// A small body on the same service still works.
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{Kind: "edgelist", EdgeList: "0 1\n"}, nil)
	if code != http.StatusCreated {
		t.Fatalf("small body after 413: status %d", code)
	}
}

// TestMemoryBudget413 checks graph admission control under measured
// per-format accounting: registrations whose reservation would exceed
// the configured budget are refused with 413 before any allocation,
// and deleting a graph refunds exactly the figure it was charged.
func TestMemoryBudget413(t *testing.T) {
	// Measure what the first graph actually charges (powerlaw dedup
	// makes the parsed edge count differ from the declared 1500, and
	// the charge is the measured figure, not the header model).
	pinned := GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 81, Format: "csr"}
	g, err := pinned.Build(1<<22, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	one := GraphBytes(g)
	dvSpec := pinned
	dvSpec.Format = "dvcsr"
	dvSpec.Seed = 82
	gDV, err := dvSpec.Build(1<<22, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	oneDV := GraphBytes(gDV)
	if oneDV >= one {
		t.Fatalf("dvcsr charge %d not below csr charge %d", oneDV, one)
	}
	// The a-priori csr reservation models the declared (pre-dedup) edge
	// count, so it must exceed what a compressed graph really needs —
	// that gap is what the budget below exploits.
	if est := EstimateGraphBytes(300, 1500); est <= oneDV {
		t.Fatalf("csr estimate %d not above dvcsr charge %d", est, oneDV)
	}
	svc, ts := newTestService(t, Config{
		Workers: 1, QueueDepth: 4,
		// Room for the first csr graph plus one compressed graph, but
		// not for a second csr reservation.
		MemoryBudgetBytes: one + oneDV,
	})

	var info GraphInfo
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", pinned, &info); code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}
	if info.Format != "csr" || info.ResidentBytes != one {
		t.Fatalf("registered graph: format %q resident %d, want csr/%d", info.Format, info.ResidentBytes, one)
	}
	gid := info.ID

	var e errorBody
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{
		Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 82, Format: "csr",
	}, &e)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-budget register: status %d (%+v), want 413", code, e)
	}
	if !strings.Contains(e.Error, "memory budget") {
		t.Fatalf("413 error = %q", e.Error)
	}
	if got := svc.m.AdmissionRejected.Load(); got != 1 {
		t.Fatalf("admission rejections = %d, want 1", got)
	}
	metrics := scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, "cosparsed_admission_rejected_total 1") {
		t.Error("metrics missing admission counter")
	}
	if !strings.Contains(metrics, fmt.Sprintf("cosparsed_graph_bytes{format=\"csr\"} %d", one)) {
		t.Error("metrics missing per-format graph bytes")
	}

	// A compressed registration of the same graph fits in the remaining
	// budget that the csr one could not: admission charges measured
	// per-format bytes, not a uniform model.
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", dvSpec, &info)
	if code != http.StatusCreated {
		t.Fatalf("compressed register: status %d, want 201", code)
	}
	if info.Format != "dvcsr" || info.ResidentBytes != oneDV {
		t.Fatalf("compressed graph: format %q charged %d, want dvcsr/%d", info.Format, info.ResidentBytes, oneDV)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+info.ID, nil, nil); code != http.StatusOK {
		t.Fatalf("delete compressed: %d", code)
	}

	// Deleting the resident graph refunds its exact charge; the retry fits.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	code = doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{
		Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 82, Format: "csr",
	}, nil)
	if code != http.StatusCreated {
		t.Fatalf("register after delete: status %d, want 201", code)
	}
}

// TestHandlerPanicRecovery injects one panic at the HTTP-handler point
// and checks it maps to a 500 — the server keeps serving afterwards.
func TestHandlerPanicRecovery(t *testing.T) {
	inject := fault.New(7)
	inject.Arm(fault.HTTPHandler, fault.Rule{PanicRate: 1, MaxFaults: 1})
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, Faults: inject})

	var e errorBody
	code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &e)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", code)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Fatalf("500 body = %q", e.Error)
	}
	if got := svc.m.Panics.Load(); got != 1 {
		t.Fatalf("panics recovered = %d, want 1", got)
	}

	// The budget is spent; the next request succeeds on the same server.
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("request after recovered panic: %d, want 200", code)
	}
}

// TestWorkerPanicIsolation injects one panic into a job run and checks
// the job fails with a recorded stack while the worker survives to run
// the next job.
func TestWorkerPanicIsolation(t *testing.T) {
	inject := fault.New(11)
	inject.Arm(fault.JobRun, fault.Rule{PanicRate: 1, MaxFaults: 1})
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, Faults: inject})
	gid := registerGraph(t, ts.URL, 91)

	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
	waitJob(t, svc, st.ID)
	got := svc.sched.Get(st.ID).Status()
	if got.State != JobFailed {
		t.Fatalf("panicked job state = %q, want failed", got.State)
	}
	if !strings.Contains(got.Error, "panic:") || !strings.Contains(got.Error, "goroutine") {
		t.Fatalf("panicked job error should carry the stack, got %q", got.Error)
	}
	if alive := svc.m.WorkersAlive.Load(); alive != 1 {
		t.Fatalf("workers alive = %d, want 1 (worker died on panic)", alive)
	}

	// The surviving worker runs the next job to completion.
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
	waitJob(t, svc, st.ID)
	if got := svc.sched.Get(st.ID).Status(); got.State != JobDone {
		t.Fatalf("job after panic: state %q err %q", got.State, got.Error)
	}
}

// TestRegisterGraphInjectedFault503: an injected graph-build fault is
// a server fault, so registration answers 503 with Retry-After, not a
// 400 that blames the spec; the next registration succeeds.
func TestRegisterGraphInjectedFault503(t *testing.T) {
	inject := fault.New(19)
	inject.Arm(fault.GraphBuild, fault.Rule{ErrRate: 1, MaxFaults: 1})
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, Faults: inject})

	body := `{"kind":"powerlaw","vertices":300,"edges":1500,"seed":1}`
	resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("injected build fault: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want 1", ra)
	}
	registerGraph(t, ts.URL, 1)
}

// TestConcurrentEngineBuildsBothFinish: two jobs on distinct graphs
// build their engines at the same time on two workers, each build held
// open by injected latency, with room to cache only one. Both run once
// and finish done; each graph costs exactly one build.
func TestConcurrentEngineBuildsBothFinish(t *testing.T) {
	inject := fault.New(23)
	inject.Arm(fault.EngineBuild, fault.Rule{LatencyRate: 1, Latency: 300 * time.Millisecond})
	svc, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8, EngineCacheSize: 1, Faults: inject})
	g1 := registerGraph(t, ts.URL, 61)
	g2 := registerGraph(t, ts.URL, 62)

	var st1, st2 JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: g1, Algo: "pr", Iterations: 2}, &st1)
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: g2, Algo: "pr", Iterations: 2}, &st2)
	waitJob(t, svc, st1.ID)
	waitJob(t, svc, st2.ID)

	for _, id := range []string{st1.ID, st2.ID} {
		if got := svc.sched.Get(id).Status(); got.State != JobDone {
			t.Fatalf("job %s: state %q err %q", id, got.State, got.Error)
		}
	}
	if got := svc.m.EngineCacheMisses.Load(); got != 2 {
		t.Fatalf("engine cache misses = %d, want 2", got)
	}
}

// TestReadyzHealthzIndependent: /healthz stays 200 during a drain (the
// process is alive) while /readyz reports not-ready.
func TestReadyzHealthzIndependent(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	if err := svc.Drain(context.Background()); err != nil {
		t.Fatalf("drain idle service: %v", err)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz during drain: %d, want 200", code)
	}
	var body map[string]string
	if code := doJSON(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", code)
	}
	if body["status"] != "draining" {
		t.Fatalf("readyz body = %v", body)
	}
}
