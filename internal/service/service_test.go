package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// registerGraph posts a small deterministic power-law graph and
// returns its id.
func registerGraph(t *testing.T, base string, seed uint64) string {
	t.Helper()
	var info GraphInfo
	code := doJSON(t, http.MethodPost, base+"/v1/graphs", GraphSpec{
		Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: seed,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}
	if info.Vertices != 300 {
		t.Fatalf("register graph: got %+v", info)
	}
	return info.ID
}

// waitJob blocks until the job reaches a terminal state (channel
// synchronization, no polling).
func waitJob(t *testing.T, svc *Service, id string) {
	t.Helper()
	j := svc.sched.Get(id)
	if j == nil {
		t.Fatalf("job %q not found in scheduler", id)
	}
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %q did not finish", id)
	}
}

// TestEndToEndFlow drives the full register → submit → wait → result →
// metrics flow over HTTP and checks the run is deterministic.
func TestEndToEndFlow(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 2, QueueDepth: 8})
	gid := registerGraph(t, ts.URL, 7)
	if gid != "g1" {
		t.Fatalf("first graph id = %q, want g1", gid)
	}

	submit := func() JobStatus {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
			GraphID: gid, Algo: "pr", Iterations: 5,
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		waitJob(t, svc, st.ID)
		code = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("get job: status %d", code)
		}
		return st
	}

	st1 := submit()
	if st1.State != JobDone {
		t.Fatalf("job state = %q (err %q), want done", st1.State, st1.Error)
	}
	if st1.Result == nil || st1.Result.TotalCycles <= 0 || st1.Result.Iterations != 5 {
		t.Fatalf("bad result: %+v", st1.Result)
	}
	if !strings.Contains(st1.Result.Summary, "pagerank") {
		t.Fatalf("summary = %q", st1.Result.Summary)
	}

	// Same job again: simulated cycle count must be identical.
	st2 := submit()
	if st2.Result.TotalCycles != st1.Result.TotalCycles {
		t.Fatalf("nondeterministic cycles: %d vs %d", st1.Result.TotalCycles, st2.Result.TotalCycles)
	}

	// Health.
	var health map[string]any
	if code := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Fatalf("healthz body: %v", health)
	}

	// Metrics.
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"cosparsed_jobs_submitted_total 2",
		"cosparsed_jobs_done_total 2",
		"cosparsed_graphs_registered 1",
		`cosparsed_job_cycles_count{algo="pr",backend="sim",mode="solo"} 2`,
		`cosparsed_job_seconds_count{algo="pr",backend="sim",mode="solo"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestDoneClosesAfterFinishIsBooked: a job's done channel closes only
// after its terminal state is counted and its finish record journaled,
// so whoever wakes on Done sees both.
func TestDoneClosesAfterFinishIsBooked(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, DataDir: t.TempDir(), StoreNoSync: true})
	journal := svc.sched.onFinish
	var journaled atomic.Int32
	svc.sched.onFinish = func(j *Job, state JobState, errMsg string) {
		select {
		case <-j.Done():
			t.Errorf("job %s: done closed before its finish record was written", j.id)
		default:
		}
		journal(j, state, errMsg)
		journaled.Add(1)
	}
	gid := registerGraph(t, ts.URL, 7)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "bfs", Backend: "native",
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitJob(t, svc, st.ID)
	if n := journaled.Load(); n != 1 {
		t.Fatalf("done fired with %d finish records journaled, want 1", n)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cosparsed_jobs_done_total 1\n") {
		t.Fatal("done fired before cosparsed_jobs_done_total counted the job")
	}
}

func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape read: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	return string(b)
}

// TestBFSOnEdgeList registers an inline edge list and checks the BFS
// result is exact.
func TestBFSOnEdgeList(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	var info GraphInfo
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{
		Kind:     "edgelist",
		EdgeList: "0 1\n1 2\n2 3\n3 4\n",
	}, &info)
	if code != http.StatusCreated || info.Vertices != 5 || info.Edges != 4 {
		t.Fatalf("edgelist register: code %d info %+v", code, info)
	}

	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: info.ID, Algo: "bfs", Source: 0}, &st)
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobDone || st.Result == nil || st.Result.Reached != 5 {
		t.Fatalf("bfs on path graph: %+v (result %+v)", st, st.Result)
	}
}

// TestQueueFull429 saturates a 1-worker/1-slot service and checks the
// third submission is rejected with 429 and counted.
func TestQueueFull429(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	gid := registerGraph(t, ts.URL, 3)

	entered := make(chan *Job, 4)
	release := make(chan struct{})
	svc.sched.beforeRun = func(j *Job) {
		entered <- j
		<-release
	}

	submit := func() (int, JobStatus) {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
			GraphID: gid, Algo: "pr", Iterations: 2,
		}, &st)
		return code, st
	}

	// First job: dequeued by the worker, held at the gate.
	code1, st1 := submit()
	if code1 != http.StatusAccepted {
		t.Fatalf("job 1: status %d", code1)
	}
	held := <-entered // worker now owns job 1; the queue slot is free

	// Second job fills the single queue slot.
	code2, st2 := submit()
	if code2 != http.StatusAccepted {
		t.Fatalf("job 2: status %d", code2)
	}

	// Third job must bounce with 429.
	code3, _ := submit()
	if code3 != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429", code3)
	}
	if got := svc.m.JobsRejected.Load(); got != 1 {
		t.Fatalf("jobs rejected = %d, want 1", got)
	}

	close(release)
	<-entered // job 2 reaches the gate after job 1 finishes
	waitJob(t, svc, st1.ID)
	waitJob(t, svc, st2.ID)
	if held.State() != JobDone {
		t.Fatalf("held job state = %q", held.State())
	}

	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "cosparsed_jobs_rejected_total 1") {
		t.Errorf("metrics missing rejected counter:\n%s", text)
	}
	if !strings.Contains(text, "cosparsed_jobs_done_total 2") {
		t.Errorf("metrics missing done counter")
	}
}

// TestJobDeadline holds a job at the gate until its deadline has
// already expired, so the run's first iteration-boundary check stops
// it: the deterministic form of "a deadline-exceeded job terminates
// between SpMV iterations".
func TestJobDeadline(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 5)

	svc.sched.beforeRun = func(j *Job) { <-j.ctx.Done() }

	var st JobStatus
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 50, TimeoutMs: 1,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobFailed {
		t.Fatalf("state = %q, want failed", st.State)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error = %q, want deadline exceeded", st.Error)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cosparsed_jobs_failed_total 1") {
		t.Errorf("metrics missing failed counter")
	}
}

// TestCancelQueuedJob cancels a job that is still waiting and checks
// it settles as cancelled without ever running.
func TestCancelQueuedJob(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 11)

	entered := make(chan *Job, 4)
	release := make(chan struct{})
	svc.sched.beforeRun = func(j *Job) {
		entered <- j
		<-release
	}

	var st1, st2 JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st1)
	<-entered // worker holds job 1
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st2)

	code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+st2.ID, nil, &st2)
	if code != http.StatusOK {
		t.Fatalf("cancel: %d", code)
	}
	waitJob(t, svc, st2.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st2.ID, nil, &st2)
	if st2.State != JobCancelled {
		t.Fatalf("state = %q, want cancelled", st2.State)
	}

	close(release)
	waitJob(t, svc, st1.ID)
	if got := svc.sched.Get(st1.ID).State(); got != JobDone {
		t.Fatalf("job 1 state = %q", got)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cosparsed_jobs_cancelled_total 1") {
		t.Errorf("metrics missing cancelled counter")
	}
}

// TestEngineCacheHitAndEviction checks the LRU engine cache exposes
// hit and eviction counters through /metrics.
func TestEngineCacheHitAndEviction(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4, EngineCacheSize: 1})
	g1 := registerGraph(t, ts.URL, 21)
	g2 := registerGraph(t, ts.URL, 22)

	run := func(gid string) {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit on %s: %d", gid, code)
		}
		waitJob(t, svc, st.ID)
		if got := svc.sched.Get(st.ID).State(); got != JobDone {
			t.Fatalf("job on %s: state %q", gid, got)
		}
	}

	run(g1) // miss: builds g1's engine
	run(g1) // hit
	run(g2) // miss: builds g2's engine, evicting g1's (capacity 1)

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"cosparsed_engine_cache_hits_total 1",
		"cosparsed_engine_cache_misses_total 2",
		"cosparsed_engine_cache_evictions_total 1",
		"cosparsed_engine_cache_size 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestSameEngineJobsRunConcurrently: with batching off, two jobs on one
// graph run inside the same cached engine at the same time — the
// worker pool is the only thing that bounds them. Each job writes a
// checkpoint every two iterations and sleeps 5 ms per iteration, so a
// checkpoint proves its run is under way; both must hold one while
// neither has finished.
func TestSameEngineJobsRunConcurrently(t *testing.T) {
	svc, ts := newDurableService(t, t.TempDir(), slowCfg(2))
	gid := registerGraph(t, ts.URL, 41)
	submit := func(iters int) string {
		var st JobStatus
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: iters}, &st); code != http.StatusAccepted {
			t.Fatalf("submit: %d", code)
		}
		return st.ID
	}
	// Build the engine first, so both jobs below hit one cache entry.
	waitJob(t, svc, submit(1))
	a, b := svc.sched.Get(submit(400)), svc.sched.Get(submit(400))

	deadline := time.Now().Add(10 * time.Second)
	for {
		sa, sb := a.Status(), b.Status()
		if sa.State != JobRunning || sb.State != JobRunning {
			if sa.State != JobQueued && sb.State != JobQueued {
				t.Fatalf("a job left running before both had checkpointed: %s %q (iter %d), %s %q (iter %d)",
					sa.ID, sa.State, sa.CheckpointIter, sb.ID, sb.State, sb.CheckpointIter)
			}
		} else if sa.CheckpointIter > 0 && sb.CheckpointIter > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runs never overlapped: %s at iter %d, %s at iter %d", sa.ID, sa.CheckpointIter, sb.ID, sb.CheckpointIter)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if hits, misses := svc.m.EngineCacheHits.Load(), svc.m.EngineCacheMisses.Load(); misses != 1 || hits != 2 {
		t.Fatalf("engine cache hits/misses = %d/%d, want 2/1 (one shared engine)", hits, misses)
	}
}

// TestGraphDeleteProtection refuses to delete a graph with an active
// job and allows it afterwards.
func TestGraphDeleteProtection(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 31)

	entered := make(chan *Job, 2)
	release := make(chan struct{})
	svc.sched.beforeRun = func(j *Job) {
		entered <- j
		<-release
	}
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 2}, &st)
	<-entered

	var e errorBody
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+gid, nil, &e); code != http.StatusConflict {
		t.Fatalf("busy delete: status %d (%+v)", code, e)
	}

	close(release)
	waitJob(t, svc, st.ID)
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusOK {
		t.Fatalf("idle delete: status %d", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph still visible: %d", code)
	}
}

// TestValidationErrors maps bad requests to the right status codes.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 41)

	cases := []struct {
		name string
		req  any
		code int
	}{
		{"unknown graph", JobRequest{GraphID: "g99", Algo: "pr"}, http.StatusNotFound},
		{"unknown algo", JobRequest{GraphID: gid, Algo: "dijkstra"}, http.StatusBadRequest},
		{"bad source", JobRequest{GraphID: gid, Algo: "bfs", Source: 100000}, http.StatusBadRequest},
		{"bad geometry", JobRequest{GraphID: gid, Algo: "pr", Tiles: -4, PEs: 16}, http.StatusBadRequest},
		{"huge geometry", JobRequest{GraphID: gid, Algo: "pr", Tiles: 4096, PEs: 4096}, http.StatusBadRequest},
		{"unknown field", map[string]any{"graph_id": gid, "algo": "pr", "bogus": 1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", c.req, nil); code != c.code {
			t.Errorf("%s: status %d, want %d", c.name, code, c.code)
		}
	}
	// A refused submit must not leak a graph pin: the graph still deletes.
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusOK {
		t.Fatalf("delete after refused submits: %d", code)
	}

	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j42", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{Kind: "torus"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown kind: %d", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{Kind: "uniform", Vertices: -1, Edges: 10}, nil); code != http.StatusBadRequest {
		t.Errorf("negative vertices: %d", code)
	}
}

// TestPPRJob runs the ppr algorithm through the plain job path
// (solo, no batching) — the service-level face of the PPR
// semiring.
func TestPPRJob(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	gid := registerGraph(t, ts.URL, 5)
	var st JobStatus
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "ppr", Source: 2, Iterations: 5,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit ppr: %d", code)
	}
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobDone {
		t.Fatalf("ppr state = %q (err %q)", st.State, st.Error)
	}
	if !strings.Contains(st.Result.Summary, "ppr from seed 2") || st.Result.TopScore <= 0 {
		t.Fatalf("ppr result: %+v", st.Result)
	}
}

// TestIncludeTrace attaches the full report when asked.
func TestIncludeTrace(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 51)
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "sssp", Source: 0, IncludeTrace: true,
	}, &st)
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobDone {
		t.Fatalf("state %q err %q", st.State, st.Error)
	}
	if st.Result.Report == nil || len(st.Result.Report.Iterations) == 0 {
		t.Fatalf("missing trace report: %+v", st.Result)
	}
	if st.Result.Report.Algorithm != "SSSP" {
		t.Fatalf("trace algorithm = %q", st.Result.Report.Algorithm)
	}
}

// TestJobListOrder lists jobs in submission order with stable ids.
func TestJobListOrder(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	gid := registerGraph(t, ts.URL, 61)
	var ids []string
	for i := 0; i < 3; i++ {
		var st JobStatus
		doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 1}, &st)
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, svc, id)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("list has %d jobs", len(list.Jobs))
	}
	for i, st := range list.Jobs {
		if want := fmt.Sprintf("j%d", i+1); st.ID != want {
			t.Errorf("job %d id = %q, want %q", i, st.ID, want)
		}
		if st.State != JobDone {
			t.Errorf("job %s state = %q", st.ID, st.State)
		}
	}
}
