package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// submitConcurrently posts every request to POST /v1/jobs at once, one
// goroutine each, and returns the 202 statuses in request order.
func submitConcurrently(t *testing.T, base string, reqs ...JobRequest) []JobStatus {
	t.Helper()
	sts := make([]JobStatus, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := json.Marshal(req)
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&sts[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return sts
}

// TestFusedSubmitFlow drives concurrent POST /v1/jobs end to end: the
// jobs coalesce into one fused run (a worker per job and BatchMaxLanes
// equal to the job count, so the group fills and no window expiry is
// involved), every lane gets its own status with fused/batch_lanes
// set, its own trace, and a result identical to a solo run of the same
// job on an unbatched service.
func TestFusedSubmitFlow(t *testing.T) {
	sources := []int32{0, 3, 7, 11}
	svc, ts := newTestService(t, Config{
		Workers: 8, QueueDepth: 64,
		BatchWindow: time.Second, BatchMaxLanes: len(sources),
	})
	gid := registerGraph(t, ts.URL, 7)

	reqs := make([]JobRequest, len(sources))
	for i, src := range sources {
		reqs[i] = JobRequest{GraphID: gid, Algo: "bfs", Source: src, Backend: "native"}
	}
	sts := submitConcurrently(t, ts.URL, reqs...)

	// Unbatched reference service over the same deterministic graph.
	refSvc, refTS := newTestService(t, Config{Workers: 1, QueueDepth: 8})
	refGID := registerGraph(t, refTS.URL, 7)

	for i, st := range sts {
		waitJob(t, svc, st.ID)
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
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
	want := fmt.Sprintf(`cosparsed_job_seconds_count{algo="bfs",backend="native",mode="fused"} %d`, len(sources))
	if !strings.Contains(text, want) {
		t.Fatalf("missing %s in:\n%s", want, text)
	}
}

// TestBatchLoneJobIsSolo: with batching on, a job nobody joins runs as
// a group of one — not marked fused, counted under mode="solo", and
// (being the only lane) its report keeps its simulated memory stats.
func TestBatchLoneJobIsSolo(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Workers: 2, QueueDepth: 8,
		BatchWindow: time.Millisecond, BatchMaxLanes: 4,
	})
	gid := registerGraph(t, ts.URL, 5)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 3, IncludeTrace: true,
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
	if st.Result == nil || st.Result.Report == nil || st.Result.Report.Memory == nil ||
		st.Result.Report.Memory.HBMReadLines == 0 {
		t.Fatalf("one-lane group's report lost its memory stats: %+v", st.Result)
	}
}

// TestFusedLanesLogSlowJob: every lane of a fused group goes through
// the same tail as a solo job, slow-job decision log included.
func TestFusedLanesLogSlowJob(t *testing.T) {
	logBuf := &syncBuffer{}
	svc := newServiceWithLog(t, Config{
		Workers: 2, QueueDepth: 8, SlowJob: time.Nanosecond, // everything is slow
		BatchWindow: time.Second, BatchMaxLanes: 2,
	}, logBuf)
	ts := newHTTPServer(t, svc)
	gid := registerWeightedGraph(t, ts.URL)

	sts := submitConcurrently(t, ts.URL,
		JobRequest{GraphID: gid, Algo: "sssp", Source: 0},
		JobRequest{GraphID: gid, Algo: "sssp", Source: 7})
	for _, st := range sts {
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
