package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// newServiceWithLog builds a service whose structured logs land in w.
func newServiceWithLog(t *testing.T, cfg Config, w io.Writer) *Service {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(w, nil))
	svc := New(cfg)
	t.Cleanup(svc.Close)
	return svc
}

func newHTTPServer(t *testing.T, svc *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// registerWeightedGraph posts the calibrated SSSP test graph: weighted
// power-law, seed 2, whose frontier wave switches OP→IP→OP at the
// default 16×16 geometry (CVD = 1%).
func registerWeightedGraph(t *testing.T, base string) string {
	t.Helper()
	var info GraphInfo
	code := doJSON(t, http.MethodPost, base+"/v1/graphs", GraphSpec{
		Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 2, Weighted: true,
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register graph: status %d", code)
	}
	return info.ID
}

// syncBuffer is a goroutine-safe TraceSink for tests (jobs finish on
// worker goroutines).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTraceEndpointMatchesReport runs SSSP on a small power-law graph
// whose frontier wave produces the paper's Fig. 9 OP→IP→OP switching
// shape, and checks that GET /v1/jobs/{id}/trace agrees with the job's
// full report, decision for decision.
func TestTraceEndpointMatchesReport(t *testing.T) {
	sink := &syncBuffer{}
	svc, ts := newTestService(t, Config{Workers: 1, TraceSink: sink})
	gid := registerWeightedGraph(t, ts.URL)

	var st JobStatus
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "sssp", Source: 0, IncludeTrace: true,
	}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, svc, st.ID)
	if code = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("get job: status %d", code)
	}
	if st.State != JobDone || st.Result == nil || st.Result.Report == nil {
		t.Fatalf("job not done with report: state=%s", st.State)
	}
	rep := st.Result.Report

	var tr JobTrace
	if code = doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/trace", nil, &tr); code != http.StatusOK {
		t.Fatalf("trace endpoint: status %d", code)
	}
	if tr.JobID != st.ID || tr.Algo != "sssp" || tr.State != JobDone || tr.Partial {
		t.Fatalf("trace header wrong: %+v", tr)
	}
	if tr.TotalIterations != st.Result.Iterations || len(tr.Iterations) != len(rep.Iterations) {
		t.Fatalf("trace has %d/%d iterations, report has %d/%d",
			tr.TotalIterations, len(tr.Iterations), st.Result.Iterations, len(rep.Iterations))
	}
	if tr.TotalCycles != rep.TotalCycles {
		t.Fatalf("trace cycles %d != report cycles %d", tr.TotalCycles, rep.TotalCycles)
	}
	seq := ""
	for i, it := range tr.Iterations {
		want := rep.Iterations[i]
		if it.Software != want.Software || it.Hardware != want.Hardware ||
			it.Iter != want.Iter || it.Cycles != want.Cycles || it.Reconfigured != want.Reconfigured {
			t.Fatalf("trace iteration %d = %+v, report has %+v", i, it, want)
		}
		seq += string(it.Software[0])
	}
	// The Fig. 9 shape: the run starts sparse (OP), densifies into IP,
	// and drains back to OP at the tail.
	if !strings.HasPrefix(seq, "O") || !strings.HasSuffix(seq, "O") || !strings.Contains(seq, "I") {
		t.Fatalf("decision sequence %q does not show the OP->IP->OP switching shape", seq)
	}
	// Per-iteration phase/memory fields survive the HTTP round trip.
	var sawKernel, sawStall bool
	for _, it := range tr.Iterations {
		if it.KernelCycles > 0 {
			sawKernel = true
		}
		if it.StallCycles > 0 {
			sawStall = true
		}
	}
	if !sawKernel || !sawStall {
		t.Fatalf("trace iterations missing phase/memory fields (kernel=%v stall=%v)", sawKernel, sawStall)
	}

	// The trace sink got the same trace as one JSON line.
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	var sunk JobTrace
	if !sc.Scan() {
		t.Fatal("trace sink is empty")
	}
	if err := json.Unmarshal(sc.Bytes(), &sunk); err != nil {
		t.Fatalf("trace sink line not JSON: %v", err)
	}
	if sunk.JobID != st.ID || sunk.TotalIterations != tr.TotalIterations || sunk.State != JobDone {
		t.Fatalf("sunk trace disagrees: %+v", sunk)
	}
}

func TestTraceEndpointNotFoundAndNotReady(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1})
	_ = svc
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/nope/trace", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}
}

// TestHTTPLatencyHistograms checks /metrics exposes per-route+status
// latency histograms with the exact cumulative `le` bucket layout and
// the in-flight gauge.
func TestHTTPLatencyHistograms(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1})
	gid := registerWeightedGraph(t, ts.URL)

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "sssp", Source: 0,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, svc, st.ID)
	// A 404 so a second status series exists for the same route family.
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/ghost", nil, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)

	for _, want := range []string{
		"# TYPE cosparsed_http_request_seconds histogram",
		`cosparsed_http_request_seconds_bucket{route="POST /v1/jobs",code="202",le="+Inf"} 1`,
		`cosparsed_http_request_seconds_count{route="POST /v1/jobs",code="202"} 1`,
		`cosparsed_http_request_seconds_bucket{route="GET /v1/jobs/{id}",code="404",le="+Inf"} 1`,
		`cosparsed_http_request_seconds_count{route="POST /v1/graphs",code="201"} 1`,
		"cosparsed_http_in_flight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The full ascending `le` ladder renders for one series, and the
	// bucket counts are cumulative (non-decreasing).
	prev := int64(-1)
	for _, b := range HTTPBuckets {
		marker := fmt.Sprintf(`cosparsed_http_request_seconds_bucket{route="POST /v1/jobs",code="202",le=%q} `, formatBound(b))
		i := strings.Index(text, marker)
		if i < 0 {
			t.Fatalf("/metrics missing bucket le=%g for POST /v1/jobs", b)
		}
		var v int64
		if _, err := fmt.Sscanf(text[i+len(marker):], "%d", &v); err != nil {
			t.Fatalf("bucket le=%g value unparsable: %v", b, err)
		}
		if v < prev {
			t.Fatalf("bucket le=%g count %d below previous %d (not cumulative)", b, v, prev)
		}
		prev = v
	}
}

// TestPprofGating checks /debug/pprof is absent by default and present
// behind the flag.
func TestPprofGating(t *testing.T) {
	_, off := newTestService(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestService(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof enabled: status %d", resp.StatusCode)
	}
}

// TestSlowJobLogsDecisionTrace checks that jobs over the SlowJob
// threshold log their decision chain.
func TestSlowJobLogsDecisionTrace(t *testing.T) {
	logBuf := &syncBuffer{}
	cfg := Config{Workers: 1, SlowJob: time.Nanosecond} // everything is slow
	svc := newServiceWithLog(t, cfg, logBuf)
	ts := newHTTPServer(t, svc)
	gid := registerWeightedGraph(t, ts.URL)

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "sssp", Source: 0,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitJob(t, svc, st.ID)

	logs := logBuf.String()
	if !strings.Contains(logs, "slow job") {
		t.Fatalf("no slow-job log emitted:\n%s", logs)
	}
	// The decision chain renders the OP→IP→OP shape with collapsed runs.
	if !strings.Contains(logs, "OP/PC") || !strings.Contains(logs, "IP/") {
		t.Fatalf("slow-job log missing decision trace:\n%s", logs)
	}
}
