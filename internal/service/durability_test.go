package service

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

// newDurableService opens a service backed by dir. StoreNoSync keeps
// the tests fast; the fsync path itself is covered in internal/store.
func newDurableService(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	cfg.DataDir = dir
	cfg.StoreNoSync = true
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open durable service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// drainAndClose shuts a durable service down mid-flight: queued jobs
// stay journaled, running jobs are cancelled without a finish record,
// so the next open recovers them.
func drainAndClose(t *testing.T, svc *Service, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_ = svc.Drain(ctx)
	ts.Close()
	svc.Close()
}

// TestDurableEmptyDataDir: a fresh data dir recovers nothing and the
// service behaves exactly like the in-memory one.
func TestDurableEmptyDataDir(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if rec := svc.Recovered(); rec != (RecoveryStats{}) {
		t.Fatalf("recovery stats on empty dir = %+v", rec)
	}
	gid := registerGraph(t, ts.URL, 7)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 5,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitJob(t, svc, st.ID)
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, &st)
	if st.State != JobDone {
		t.Fatalf("job state = %q (%s)", st.State, st.Error)
	}
	if st.Resumed {
		t.Error("fresh job claims to be resumed")
	}

	// Journal bytes flowed through the metrics hook.
	text := scrapeMetrics(t, ts.URL)
	if !strings.Contains(text, "cosparsed_journal_bytes_total") {
		t.Error("metrics missing cosparsed_journal_bytes_total")
	}
	if svc.m.JournalBytes.Load() <= 0 {
		t.Error("no journal bytes recorded")
	}
}

// TestDurableRestartPreservesGraphsAndSettledJobs: after a clean run
// and close, a reopen restores the graph, does not re-run settled
// jobs, and compacts the journal down to the live state.
func TestDurableRestartPreservesGraphsAndSettledJobs(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 7)
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 5}, &st)
	waitJob(t, svc, st.ID)
	ts.Close()
	svc.Close()

	svc2, ts2 := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	rec := svc2.Recovered()
	if rec.GraphsRestored != 1 {
		t.Errorf("GraphsRestored = %d, want 1", rec.GraphsRestored)
	}
	if rec.JobsResumed+rec.JobsRestarted+rec.JobsFailed != 0 {
		t.Errorf("settled job was recovered: %+v", rec)
	}
	// The graph is queryable under its original id and new jobs run.
	var info GraphInfo
	if code := doJSON(t, http.MethodGet, ts2.URL+"/v1/graphs/"+gid, nil, &info); code != http.StatusOK {
		t.Fatalf("recovered graph not found: %d", code)
	}
	var st2 JobStatus
	if code := doJSON(t, http.MethodPost, ts2.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 5,
	}, &st2); code != http.StatusAccepted {
		t.Fatalf("submit after restart: %d", code)
	}
	// Recovered ids must not collide with the settled job's id.
	if st2.ID == st.ID {
		t.Errorf("job id %q reused after restart", st.ID)
	}
	waitJob(t, svc2, st2.ID)

	// A deleted graph stays deleted across restarts.
	if code := doJSON(t, http.MethodDelete, ts2.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusOK {
		t.Fatalf("delete graph: %d", code)
	}
	ts2.Close()
	svc2.Close()
	svc3, ts3 := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if code := doJSON(t, http.MethodGet, ts3.URL+"/v1/graphs/"+gid, nil, nil); code != http.StatusNotFound {
		t.Fatalf("deleted graph resurrected: %d", code)
	}
	if svc3.Recovered().GraphsRestored != 0 {
		t.Errorf("GraphsRestored = %d after delete", svc3.Recovered().GraphsRestored)
	}
}

// slowCfg returns a durable config whose jobs sleep per iteration, so
// tests can interrupt them mid-run deterministically.
func slowCfg(workers int) Config {
	inj := fault.New(1)
	inj.Arm(fault.Iteration, fault.Rule{LatencyRate: 1, Latency: 5 * time.Millisecond})
	return Config{
		Workers:         workers,
		QueueDepth:      8,
		Faults:          inj,
		CheckpointEvery: 2,
	}
}

// waitForCheckpoint polls until the job has at least one snapshot on
// disk and its status reports checkpoint progress.
func waitForCheckpoint(t *testing.T, svc *Service, id string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snaps, err := svc.Store().LoadSnapshots(id)
		if err != nil {
			t.Fatalf("LoadSnapshots: %v", err)
		}
		if len(snaps) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never wrote a checkpoint", id)
}

// TestDurableCloseKeepsInterruptedJob: a plain Close (no Drain first)
// cancels the running job, but that cancellation is the shutdown's, not
// the client's — it must not be journaled as the job's end. The
// reopened service runs the job to done under its original id.
func TestDurableCloseKeepsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, slowCfg(1))
	gid := registerGraph(t, ts.URL, 7)
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 200, Backend: "native",
	}, &st)
	// A checkpoint on disk means the job is running, with ~1 s of
	// injected iteration latency still ahead of it.
	waitForCheckpoint(t, svc, st.ID)
	ts.Close()
	svc.Close()

	svc2, ts2 := newDurableService(t, dir, slowCfg(1))
	if rec := svc2.Recovered(); rec.JobsResumed+rec.JobsRestarted != 1 {
		t.Fatalf("recovery = %+v, want the interrupted job back", rec)
	}
	if svc2.sched.Get(st.ID) == nil {
		t.Fatalf("job %s did not survive Close", st.ID)
	}
	waitJob(t, svc2, st.ID)
	var final JobStatus
	doJSON(t, http.MethodGet, ts2.URL+"/v1/jobs/"+st.ID, nil, &final)
	if final.State != JobDone {
		t.Fatalf("re-run job: %q (%s)", final.State, final.Error)
	}
}

// TestDurableRestartResumesInterruptedJob is the heart of the tentpole
// at the service layer: a running job interrupted by shutdown comes
// back on the next open, resumes from its checkpoint, and produces the
// same deterministic result as an uninterrupted run — across TWO
// interruptions (which also proves recovery is idempotent: the same
// job id survives both restarts without duplication).
func TestDurableRestartResumesInterruptedJob(t *testing.T) {
	// Reference: the same job on a throwaway dir, uninterrupted.
	refDir := t.TempDir()
	refSvc, refTS := newDurableService(t, refDir, slowCfg(1))
	refGid := registerGraph(t, refTS.URL, 7)
	var refSt JobStatus
	doJSON(t, http.MethodPost, refTS.URL+"/v1/jobs", JobRequest{
		GraphID: refGid, Algo: "pr", Iterations: 40,
	}, &refSt)
	waitJob(t, refSvc, refSt.ID)
	doJSON(t, http.MethodGet, refTS.URL+"/v1/jobs/"+refSt.ID, nil, &refSt)
	if refSt.State != JobDone {
		t.Fatalf("reference job: %q (%s)", refSt.State, refSt.Error)
	}

	// Interrupted run, restart #1.
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, slowCfg(1))
	gid := registerGraph(t, ts.URL, 7)
	if gid != refGid {
		t.Fatalf("graph ids diverge: %q vs %q", gid, refGid)
	}
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 40,
	}, &st)
	waitForCheckpoint(t, svc, st.ID)

	// Status surfaces checkpoint progress while running.
	if j := svc.sched.Get(st.ID); j != nil {
		jst := j.Status()
		if jst.CheckpointIter <= 0 || jst.CheckpointAgeSeconds < 0 {
			t.Errorf("running status lacks checkpoint fields: %+v", jst)
		}
	}
	drainAndClose(t, svc, ts)

	svc2, ts2 := newDurableService(t, dir, slowCfg(1))
	rec := svc2.Recovered()
	if rec.JobsResumed != 1 {
		t.Fatalf("restart #1: JobsResumed = %d, want 1 (%+v)", rec.JobsResumed, rec)
	}
	if svc2.sched.Get(st.ID) == nil {
		t.Fatalf("job %s did not survive restart", st.ID)
	}
	// Interrupt again mid-run: double-recovery idempotence.
	waitForCheckpoint(t, svc2, st.ID)
	drainAndClose(t, svc2, ts2)

	svc3, ts3 := newDurableService(t, dir, slowCfg(1))
	rec3 := svc3.Recovered()
	if rec3.JobsResumed != 1 || rec3.JobsRestarted != 0 || rec3.JobsFailed != 0 {
		t.Fatalf("restart #2 recovery: %+v, want exactly the same single job", rec3)
	}
	waitJob(t, svc3, st.ID)
	var final JobStatus
	doJSON(t, http.MethodGet, ts3.URL+"/v1/jobs/"+st.ID, nil, &final)
	if final.State != JobDone {
		t.Fatalf("resumed job: %q (%s)", final.State, final.Error)
	}
	if !final.Resumed {
		t.Error("resumed job status does not report resumed=true")
	}
	if final.Result == nil || refSt.Result == nil {
		t.Fatal("missing results")
	}
	sameAnswer := func(a, b *JobResult) bool {
		return a.TotalCycles == b.TotalCycles && a.EnergyJ == b.EnergyJ && a.Iterations == b.Iterations &&
			a.TopVertex == b.TopVertex && a.TopScore == b.TopScore
	}
	if !sameAnswer(final.Result, refSt.Result) {
		t.Errorf("resumed result diverges from uninterrupted run:\n  ref %+v\n  got %+v",
			refSt.Result, final.Result)
	}

	// Metrics recorded the recovery outcomes.
	text := scrapeMetrics(t, ts3.URL)
	if !strings.Contains(text, `cosparsed_jobs_recovered_total{outcome="resumed"} 1`) {
		t.Error("metrics missing resumed recovery count")
	}

	// Settled: the snapshot files go. Done is signalled before the
	// worker journals the finish and deletes them, so wait for the
	// deletion rather than assume it has already happened.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snaps, err := svc3.Store().LoadSnapshots(st.ID)
		if err != nil {
			t.Fatalf("LoadSnapshots: %v", err)
		}
		if len(snaps) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d snapshot generations survive job completion", len(snaps))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A data dir left by an earlier build: the journaled graph spec names
	// a storage format this build dropped, and the interrupted job's only
	// snapshot is a version-1 image. Neither may take the graph or the
	// job down: the graph comes back under auto-selection, the job
	// re-runs from iteration 0 to the reference answer, and each
	// fallback logs exactly one warning.
	oldDir := t.TempDir()
	db, err := store.Open(oldDir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Append(store.Record{Type: store.RecGraph, GraphID: refGid,
		GraphSpec: json.RawMessage(`{"kind":"powerlaw","vertices":300,"edges":1500,"seed":7,"format":"bbcsr"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	const formatWarning = "storage format this build does not have"
	withLog := func() (Config, *syncBuffer) {
		cfg, buf := slowCfg(1), &syncBuffer{}
		cfg.Logger = slog.New(slog.NewTextHandler(buf, nil))
		return cfg, buf
	}
	cfg4, log4 := withLog()
	svc4, ts4 := newDurableService(t, oldDir, cfg4)
	var info GraphInfo
	if code := doJSON(t, http.MethodGet, ts4.URL+"/v1/graphs/"+refGid, nil, &info); code != http.StatusOK || info.Format != "dvcsr" {
		t.Fatalf("graph with a dropped format: status %d, restored as %q, want dvcsr", code, info.Format)
	}
	if n := strings.Count(log4.String(), formatWarning); n != 1 {
		t.Errorf("%d format warnings on replay, want 1:\n%s", n, log4.String())
	}
	// The same name on a new registration is a client error that lists
	// what this build accepts.
	var refused errorBody
	if code := doJSON(t, http.MethodPost, ts4.URL+"/v1/graphs", GraphSpec{
		Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7, Format: "bbcsr",
	}, &refused); code != http.StatusBadRequest || !strings.Contains(refused.Error, `"auto", "csr" or "dvcsr"`) {
		t.Errorf("registering a dropped format: status %d, error %q", code, refused.Error)
	}
	var oldSt JobStatus
	doJSON(t, http.MethodPost, ts4.URL+"/v1/jobs", JobRequest{GraphID: refGid, Algo: "pr", Iterations: 40}, &oldSt)
	waitForCheckpoint(t, svc4, oldSt.ID)
	drainAndClose(t, svc4, ts4)
	snap := filepath.Join(oldDir, "snap-"+oldSt.ID+".ckpt")
	if err := os.Remove(snap + ".prev"); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	image, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(image[4:6], 1)
	if err := os.WriteFile(snap, image, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg5, log5 := withLog()
	svc5, ts5 := newDurableService(t, oldDir, cfg5)
	waitJob(t, svc5, oldSt.ID)
	doJSON(t, http.MethodGet, ts5.URL+"/v1/jobs/"+oldSt.ID, nil, &oldSt)
	if oldSt.State != JobDone || oldSt.Resumed {
		t.Fatalf("job behind a version-1 snapshot: state %q (%s), resumed %t; want a fresh run to done",
			oldSt.State, oldSt.Error, oldSt.Resumed)
	}
	if !sameAnswer(oldSt.Result, refSt.Result) {
		t.Errorf("re-run result diverges from uninterrupted run:\n  ref %+v\n  got %+v", refSt.Result, oldSt.Result)
	}
	logs := log5.String()
	if n := strings.Count(logs, formatWarning); n != 1 {
		t.Errorf("%d format warnings on the second replay, want 1", n)
	}
	if n := strings.Count(logs, "discarding invalid checkpoint"); n != 1 || !strings.Contains(logs, "checkpoint version 1") {
		t.Errorf("%d checkpoint discards (want 1, naming version 1):\n%s", n, logs)
	}
}

// TestDurableTornTailRestartsQueuedJob: a journal whose final record
// was torn mid-write (crash during Append) still recovers everything
// before the tear; the queued job restarts from scratch.
func TestDurableTornTailRestartsQueuedJob(t *testing.T) {
	dir := t.TempDir()
	// Craft the journal directly: graph + queued job, then a torn frame.
	db, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7})
	req, _ := json.Marshal(JobRequest{GraphID: "g1", Algo: "pr", Iterations: 3})
	if err := db.Append(store.Record{Type: store.RecGraph, GraphID: "g1", GraphSpec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(store.Record{Type: store.RecSubmit, JobID: "j1", GraphID: "g1", Request: req, TimeoutMS: 30000}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Tear: a frame header claiming bytes that never made it to disk.
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	torn := make([]byte, 12)
	binary.LittleEndian.PutUint32(torn[0:4], 500)
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()

	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	rec := svc.Recovered()
	if !rec.Truncated {
		t.Error("torn tail not reported")
	}
	if rec.GraphsRestored != 1 || rec.JobsRestarted != 1 || rec.JobsResumed != 0 {
		t.Fatalf("recovery = %+v, want 1 graph + 1 restarted job", rec)
	}
	waitJob(t, svc, "j1")
	var st JobStatus
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", nil, &st)
	if st.State != JobDone {
		t.Fatalf("recovered job: %q (%s)", st.State, st.Error)
	}
	if st.Resumed {
		t.Error("restarted-from-scratch job claims resumed (it had no checkpoint)")
	}
}

// TestDurableTwoSegmentsCompactToOne: a crash between a compaction's
// write and its deletes leaves two segments — the old history and the
// compacted live set. Recovery replays both (the settled job stays
// settled, the queued one runs once) and compacts them into a single
// new segment, which takes every later append.
func TestDurableTwoSegmentsCompactToOne(t *testing.T) {
	dir, live := t.TempDir(), t.TempDir()
	spec, _ := json.Marshal(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7})
	req, _ := json.Marshal(JobRequest{GraphID: "g1", Algo: "pr", Iterations: 3})
	graph := store.Record{Type: store.RecGraph, GraphID: "g1", GraphSpec: spec}
	submit := func(id string) store.Record {
		return store.Record{Type: store.RecSubmit, JobID: id, GraphID: "g1", Request: req, TimeoutMS: 30000}
	}
	write := func(dir string, recs ...store.Record) string {
		t.Helper()
		db, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		db.Close()
		return filepath.Join(dir, "journal-00000001.wal")
	}
	write(dir, graph, submit("j1"), store.Record{Type: store.RecStart, JobID: "j1"},
		store.Record{Type: store.RecFinish, JobID: "j1", State: "done"}, submit("j2"))
	data, err := os.ReadFile(write(live, graph, submit("j2")))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal-00000002.wal"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if rec := svc.Recovered(); rec.Records != 7 || rec.GraphsRestored != 1 || rec.JobsRestarted != 1 {
		t.Fatalf("recovery = %+v, want 7 records, 1 graph, 1 restarted job", rec)
	}
	waitJob(t, svc, "j2")
	var st JobStatus
	if doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j2", nil, &st); st.State != JobDone {
		t.Fatalf("recovered job: %q (%s)", st.State, st.Error)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", nil, &st); code != http.StatusNotFound {
		t.Fatalf("settled job j1 came back: %d %+v", code, st)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(segs) != 1 || filepath.Base(segs[0]) != "journal-00000003.wal" {
		t.Fatalf("segments after recovery = %v, want journal-00000003.wal alone", segs)
	}
	recs, err := svc.Store().Replay()
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, r := range recs {
		types = append(types, string(r.Type)+":"+r.GraphID+r.JobID)
	}
	if got := strings.Join(types, " "); got != "graph:g1 submit:j2 start:j2 finish:j2" {
		t.Fatalf("journal after recovery and the run = %s", got)
	}
}

// TestDurableLegacyRetryRecordReplays: a data dir written by a build
// that re-ran failed jobs holds a "retry" record and a submit record
// carrying a retry count. Both replay: the job runs to done and no
// record is reported as unknown.
func TestDurableLegacyRetryRecordReplays(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := json.Marshal(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7})
	if err := db.Append(store.Record{Type: store.RecGraph, GraphID: "g1", GraphSpec: spec}); err != nil {
		t.Fatal(err)
	}
	db.Close()
	// Frames as the older build wrote them: length, CRC32, JSON payload.
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(segs) != 1 {
		t.Fatalf("segments = %v", segs)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		`{"type":"submit","job_id":"j1","graph_id":"g1","request":{"graph_id":"g1","algo":"pr","iterations":3},"timeout_ms":30000,"retries":1}`,
		`{"type":"start","job_id":"j1"}`,
		`{"type":"retry","job_id":"j1","retries":1}`,
	} {
		frame := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte(payload)))
		copy(frame[8:], payload)
		if _, err := f.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	buf := &syncBuffer{}
	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4,
		Logger: slog.New(slog.NewTextHandler(buf, nil))})
	if rec := svc.Recovered(); rec.GraphsRestored != 1 || rec.JobsRestarted != 1 {
		t.Fatalf("recovery = %+v, want 1 graph + 1 restarted job", rec)
	}
	waitJob(t, svc, "j1")
	var st JobStatus
	doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/j1", nil, &st)
	if st.State != JobDone {
		t.Fatalf("recovered job: %q (%s)", st.State, st.Error)
	}
	if strings.Contains(buf.String(), "skipping unknown journal record type") {
		t.Errorf("legacy retry record reported as unknown:\n%s", buf.String())
	}
}

// TestDurableStaleSnapshotsSwept: snapshots for settled or unknown
// jobs (e.g. written after the job's finish record hit the journal)
// are deleted at recovery, not resurrected.
func TestDurableStaleSnapshotsSwept(t *testing.T) {
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	gid := registerGraph(t, ts.URL, 7)
	var st JobStatus
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 3}, &st)
	waitJob(t, svc, st.ID)
	// Done closes before the worker journals the finish and sweeps the
	// job's snapshots; Close waits for the worker, so the orphans below
	// cannot race that sweep.
	ts.Close()
	svc.Close()
	// Orphan snapshots: one for the settled job (as if a crash hit
	// between journal-finish and snapshot delete), one for a job the
	// journal has never heard of.
	db, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot(st.ID, []byte("stale")); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteSnapshot("j999", []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	db.Close()

	svc2, _ := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	rec := svc2.Recovered()
	if rec.SnapshotsDropped != 2 {
		t.Errorf("SnapshotsDropped = %d, want 2", rec.SnapshotsDropped)
	}
	for _, id := range []string{st.ID, "j999"} {
		if snaps, _ := svc2.Store().LoadSnapshots(id); len(snaps) != 0 {
			t.Errorf("stale snapshot for %s survived recovery", id)
		}
	}
}

// TestDurableVersionSkewRefusesStartup: a journal written by a future
// format version must abort Open — recovery never guesses at data it
// cannot read.
func TestDurableVersionSkewRefusesStartup(t *testing.T) {
	dir := t.TempDir()
	svc, _ := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	svc.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.wal"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:6], 99)
	os.WriteFile(segs[0], data, 0o644)

	cfg := Config{Workers: 1, QueueDepth: 4, DataDir: dir, StoreNoSync: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Open with version-skewed journal = %v, want version error", err)
	}
}

// TestDurableUnrecoverableJobSettledOnce: a job whose graph cannot be
// rebuilt fails recovery, journals a terminal record, and does NOT
// reappear on the next restart (no retry loop across startups).
func TestDurableUnrecoverableJobSettledOnce(t *testing.T) {
	dir := t.TempDir()
	db, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(JobRequest{GraphID: "g404", Algo: "pr", Iterations: 3})
	db.Append(store.Record{Type: store.RecSubmit, JobID: "j1", GraphID: "g404", Request: req})
	db.Close()

	svc, _ := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if rec := svc.Recovered(); rec.JobsFailed != 1 {
		t.Fatalf("recovery = %+v, want 1 failed job", rec)
	}
	svc.Close()

	svc2, _ := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4})
	if rec := svc2.Recovered(); rec.JobsFailed != 0 || rec.JobsResumed != 0 || rec.JobsRestarted != 0 {
		t.Fatalf("second recovery retried a settled-unrecoverable job: %+v", rec)
	}
}

// TestDurableSubmitVetoOnJournalFailure: "accepted means durable" — if
// the submit record cannot be journaled, the submission is refused and
// nothing runs.
func TestDurableSubmitVetoOnJournalFailure(t *testing.T) {
	inj := fault.New(1)
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4, Faults: inj})
	gid := registerGraph(t, ts.URL, 7)

	inj.Arm(fault.JournalAppend, fault.Rule{ErrRate: 1})
	var errBody map[string]any
	code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 3,
	}, &errBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit with failing journal = %d, want 503", code)
	}
	if svc.sched.Get("j1") != nil {
		t.Error("vetoed job is visible in the scheduler")
	}
	inj.DisarmAll()

	var st JobStatus
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 3,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit after disarm = %d", code)
	}
	waitJob(t, svc, st.ID)
}

// TestChaosDurableStore runs a batch of jobs while snapshot writes fail
// randomly and journal appends crawl: durability degrades (checkpoint
// failures are counted) but every job still completes, and a final
// restart finds nothing live to recover.
func TestChaosDurableStore(t *testing.T) {
	inj := fault.New(42)
	inj.Arm(fault.Iteration, fault.Rule{LatencyRate: 1, Latency: time.Millisecond})
	inj.Arm(fault.SnapshotWrite, fault.Rule{ErrRate: 0.5})
	dir := t.TempDir()
	svc, ts := newDurableService(t, dir, Config{
		Workers: 2, QueueDepth: 16, Faults: inj, CheckpointEvery: 2,
	})
	gid := registerGraph(t, ts.URL, 7)

	var ids []string
	for i := 0; i < 8; i++ {
		var st JobStatus
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{
			GraphID: gid, Algo: "pr", Iterations: 12,
		}, &st); code != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitJob(t, svc, id)
		var st JobStatus
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil, &st)
		if st.State != JobDone {
			t.Errorf("job %s under chaos: %q (%s)", id, st.State, st.Error)
		}
	}
	if svc.m.CheckpointFailures.Load() == 0 {
		t.Error("no checkpoint failures despite 50% snapshot fault rate")
	}
	ts.Close()
	svc.Close()

	inj.DisarmAll()
	svc2, _ := newDurableService(t, dir, Config{Workers: 1, QueueDepth: 4, Faults: inj})
	rec := svc2.Recovered()
	if rec.JobsResumed+rec.JobsRestarted+rec.JobsFailed != 0 {
		t.Errorf("settled chaos jobs leaked into recovery: %+v", rec)
	}
	if rec.GraphsRestored != 1 {
		t.Errorf("GraphsRestored = %d, want 1", rec.GraphsRestored)
	}
}

// TestDurableCloseIsPrompt: a durable leader's Close does not wait out
// its replicator's heartbeat tick (1 s by default) or a reconnect
// backoff; every replicator goroutine wakes on Close.
func TestDurableCloseIsPrompt(t *testing.T) {
	svc, err := Open(Config{
		Workers: 1, QueueDepth: 4, DataDir: t.TempDir(), StoreNoSync: true,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	svc.Close()
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("durable Close took %v with the default 1s heartbeat", d)
	}
}
