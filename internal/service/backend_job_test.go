package service

import (
	"net/http"
	"strings"
	"testing"
)

// TestNativeBackendJob runs the same PageRank job through the sim and
// native backends over the HTTP API: values must agree exactly (the
// backends share kernel pass bodies), accounting must be in the right
// currency (cycles vs wall-clock), and both backends must show up as
// metric labels and distinct engine-cache entries.
func TestNativeBackendJob(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 11)

	submit := func(backend string) JobStatus {
		var st JobStatus
		code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
			GraphID: gid, Algo: "pr", Iterations: 5, Backend: backend,
		}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("submit backend=%q: status %d", backend, code)
		}
		waitJob(t, svc, st.ID)
		if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
			t.Fatalf("get job: status %d", code)
		}
		if st.State != JobDone {
			t.Fatalf("backend=%q job state = %q (err %q)", backend, st.State, st.Error)
		}
		return st
	}

	sim := submit("")
	nat := submit("native")

	if sim.Result.Backend != "sim" || nat.Result.Backend != "native" {
		t.Fatalf("result backends = %q/%q, want sim/native", sim.Result.Backend, nat.Result.Backend)
	}
	if sim.Result.TotalCycles <= 0 {
		t.Fatalf("sim job reported no cycles")
	}
	if nat.Result.TotalCycles != 0 {
		t.Fatalf("native job reported %d simulated cycles", nat.Result.TotalCycles)
	}
	if nat.Result.TopVertex != sim.Result.TopVertex || nat.Result.TopScore != sim.Result.TopScore {
		t.Fatalf("backends disagree: sim top %d/%g, native top %d/%g",
			sim.Result.TopVertex, sim.Result.TopScore, nat.Result.TopVertex, nat.Result.TopScore)
	}

	// Each backend is its own cached engine: 2 misses, no aliasing.
	if misses := svc.m.EngineCacheMisses.Load(); misses != 2 {
		t.Fatalf("engine cache misses = %d, want 2 (one per backend)", misses)
	}

	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`cosparsed_job_cycles_count{algo="pr",backend="sim",mode="solo"} 1`,
		`cosparsed_job_seconds_count{algo="pr",backend="native",mode="solo"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, `cosparsed_job_cycles_count{algo="pr",backend="native"`) {
		t.Error("metrics carry a cycles series for the native job, which simulates none")
	}

	// Unknown backends are rejected at validation time.
	var errBody map[string]any
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Backend: "fpga",
	}, &errBody)
	if code != http.StatusBadRequest {
		t.Fatalf("backend=fpga: status %d, want 400", code)
	}
}
