package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBatchSubmitFusedFlow drives POST /v1/jobs/batch end to end:
// the jobs coalesce into one fused run (the group fills to
// BatchMaxLanes, so no window expiry is involved), every lane gets its
// own status with fused/batch_lanes set, its own trace, and a result
// identical to a solo run of the same job on an unbatched service.
func TestBatchSubmitFusedFlow(t *testing.T) {
	sources := []int32{0, 3, 7, 11}
	svc, ts := newTestService(t, Config{
		Workers: 8, QueueDepth: 64,
		BatchWindow: time.Second, BatchMaxLanes: len(sources),
	})
	gid := registerGraph(t, ts.URL, 7)

	var resp BatchJobResponse
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch", BatchJobRequest{
		GraphID: gid, Algo: "bfs", Sources: sources, Backend: "native",
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("batch submit: status %d", code)
	}
	if len(resp.Jobs) != len(sources) || resp.Rejected != 0 {
		t.Fatalf("batch response: %+v", resp)
	}

	// Unbatched reference service over the same deterministic graph.
	refSvc, refTS := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	refGID := registerGraph(t, refTS.URL, 7)

	for i, st := range resp.Jobs {
		waitJob(t, svc, st.ID)
		code = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
		if code != http.StatusOK {
			t.Fatalf("get job %s: %d", st.ID, code)
		}
		if st.State != JobDone {
			t.Fatalf("lane %d state = %q (err %q)", i, st.State, st.Error)
		}
		if !st.Fused || st.BatchLanes != len(sources) {
			t.Fatalf("lane %d fused=%v batch_lanes=%d, want fused 4-lane run", i, st.Fused, st.BatchLanes)
		}
		if st.Result == nil || st.Result.Iterations == 0 {
			t.Fatalf("lane %d missing result: %+v", i, st.Result)
		}

		// Per-lane trace endpoint still works for fused lanes.
		var tr JobTrace
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/trace", nil, &tr); code != http.StatusOK {
			t.Fatalf("lane %d trace: %d", i, code)
		}
		if tr.TotalIterations != st.Result.Iterations || len(tr.Iterations) == 0 {
			t.Fatalf("lane %d trace iterations = %d/%d", i, tr.TotalIterations, len(tr.Iterations))
		}

		// Same job solo on the unbatched service: same answer.
		var ref JobStatus
		code = doJSON(t, http.MethodPost, refTS.URL+"/v1/jobs", JobRequest{
			GraphID: refGID, Algo: "bfs", Source: sources[i], Backend: "native",
		}, &ref)
		if code != http.StatusAccepted {
			t.Fatalf("ref submit: %d", code)
		}
		waitJob(t, refSvc, ref.ID)
		doJSON(t, http.MethodGet, refTS.URL+"/v1/jobs/"+ref.ID, nil, &ref)
		if ref.State != JobDone {
			t.Fatalf("ref lane %d state = %q (err %q)", i, ref.State, ref.Error)
		}
		if ref.Fused {
			t.Fatalf("unbatched service fused a job")
		}
		if st.Result.Summary != ref.Result.Summary || st.Result.Reached != ref.Result.Reached {
			t.Fatalf("lane %d fused result %q differs from solo %q", i, st.Result.Summary, ref.Result.Summary)
		}
	}

	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "cosparsed_batch_occupancy_count 1") {
		t.Fatalf("missing batch occupancy observation:\n%s", text)
	}
	want := fmt.Sprintf(`cosparsed_job_cycles_count{algo="bfs",backend="native",mode="fused"} %d`, len(sources))
	if !strings.Contains(text, want) {
		t.Fatalf("missing %s in:\n%s", want, text)
	}
}

// TestBatchSubmitValidation exercises the request-shape checks.
func TestBatchSubmitValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	gid := registerGraph(t, ts.URL, 3)

	cases := []struct {
		name string
		req  BatchJobRequest
		code int
	}{
		{"sources for pr", BatchJobRequest{GraphID: gid, Algo: "pr", Sources: []int32{1, 2}}, http.StatusBadRequest},
		{"no sources for bfs", BatchJobRequest{GraphID: gid, Algo: "bfs"}, http.StatusBadRequest},
		{"count mismatch", BatchJobRequest{GraphID: gid, Algo: "bfs", Sources: []int32{1}, Count: 3}, http.StatusBadRequest},
		{"zero count for pr", BatchJobRequest{GraphID: gid, Algo: "pr"}, http.StatusBadRequest},
		{"oversized", BatchJobRequest{GraphID: gid, Algo: "pr", Count: MaxBatchJobs + 1}, http.StatusBadRequest},
		{"unknown graph", BatchJobRequest{GraphID: "nope", Algo: "bfs", Sources: []int32{0}}, http.StatusNotFound},
		{"bad source", BatchJobRequest{GraphID: gid, Algo: "bfs", Sources: []int32{0, 99999}}, http.StatusBadRequest},
		{"unknown algo", BatchJobRequest{GraphID: gid, Algo: "wat", Sources: []int32{0}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch", tc.req, nil); code != tc.code {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.code)
		}
	}

	// A failed batch must not leak graph pins: the graph still deletes.
	var del map[string]string
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/graphs/"+gid, nil, &del); code != http.StatusOK {
		t.Fatalf("delete after failed batches: %d", code)
	}
}

// TestBatchPPRJob runs the new ppr algorithm through the plain job
// path (solo, no batching) — the service-level face of the PPR
// semiring.
func TestBatchPPRJob(t *testing.T) {
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

// TestBatchLoneJobIsSolo: with batching on, a job nobody joins runs as
// a group of one — not marked fused, counted under mode="solo", and
// (being the only lane) its simulated memory stats are observed.
func TestBatchLoneJobIsSolo(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Workers: 2, QueueDepth: 8,
		BatchWindow: time.Millisecond, BatchMaxLanes: 4,
	})
	gid := registerGraph(t, ts.URL, 5)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 3,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobDone || st.Fused || st.BatchLanes != 0 {
		t.Fatalf("lone job: state %q fused=%v batch_lanes=%d, want a done solo run", st.State, st.Fused, st.BatchLanes)
	}
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, `cosparsed_job_seconds_count{algo="pr",backend="sim",mode="solo"} 1`) {
		t.Fatalf("mode=solo job_seconds series did not advance:\n%s", text)
	}
	if svc.m.SimHBMReadLines.Load() == 0 {
		t.Fatal("sim HBM counters did not advance for a one-lane group")
	}
}

// TestBatchFusedLanesLogSlowJob: every lane of a fused group goes
// through the same tail as a solo job, slow-job decision log included.
func TestBatchFusedLanesLogSlowJob(t *testing.T) {
	logBuf := &syncBuffer{}
	svc := newServiceWithLog(t, Config{
		Workers: 2, QueueDepth: 8, SlowJob: time.Nanosecond, // everything is slow
		BatchWindow: time.Second, BatchMaxLanes: 2,
	}, logBuf)
	ts := newHTTPServer(t, svc)
	gid := registerWeightedGraph(t, ts.URL)

	var resp BatchJobResponse
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs/batch", BatchJobRequest{
		GraphID: gid, Algo: "sssp", Sources: []int32{0, 7},
	}, &resp); code != http.StatusAccepted {
		t.Fatalf("batch submit: %d", code)
	}
	for _, st := range resp.Jobs {
		waitJob(t, svc, st.ID)
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
		if st.State != JobDone || !st.Fused {
			t.Fatalf("job %s: state %q fused=%v, want a done fused lane", st.ID, st.State, st.Fused)
		}
		if !strings.Contains(logBuf.String(), `msg="slow job" job=`+st.ID+" ") {
			t.Fatalf("no slow-job log for fused lane %s:\n%s", st.ID, logBuf.String())
		}
	}
}
