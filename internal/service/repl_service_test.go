package service

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cosparse/internal/repl"
	"cosparse/internal/store"
)

// newReplLeader opens a durable leader without registering cleanup, so
// tests can kill it mid-flight (the failover scenarios own its
// lifecycle).
func newReplLeader(t *testing.T, dir string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.DataDir = dir
	cfg.StoreNoSync = true
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open leader: %v", err)
	}
	return svc, httptest.NewServer(svc.Handler())
}

// newReplFollower opens a standby of the given leader.
func newReplFollower(t *testing.T, dir, leaderURL string, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg.DataDir = dir
	cfg.StoreNoSync = true
	cfg.FollowLeader = leaderURL
	svc, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open follower: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// waitCaughtUp polls the follower's /readyz until it reports a
// committed resync ("caught-up"), which also exercises the readiness
// contract: 503 + "syncing" before, 200 after.
func waitCaughtUp(t *testing.T, followerURL string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		var ready struct {
			Status      string `json:"status"`
			Role        string `json:"role"`
			Replication string `json:"replication"`
		}
		code := doJSON(t, http.MethodGet, followerURL+"/readyz", nil, &ready)
		if ready.Role != "follower" {
			t.Fatalf("follower readyz role = %q, want follower", ready.Role)
		}
		if code == http.StatusOK {
			if ready.Replication != "caught-up" {
				t.Fatalf("ready follower reports replication %q, want caught-up", ready.Replication)
			}
			return
		}
		if ready.Replication != "syncing" {
			t.Fatalf("unready follower reports replication %q, want syncing", ready.Replication)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("follower never caught up")
}

// waitStreaming waits until the leader's own replication view shows
// the follower streaming with every journaled record acked: a tail poll
// admitted since the follower's resync listing. waitCaughtUp returns
// once the resync commits, before that poll; until the leader admits
// one it has no follower contact, and a semisync submit falls back at
// once.
func waitStreaming(t *testing.T, leader *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, head := leader.ReplicationStatus(), leader.Store().Seq()
		if v.State == "streaming" && v.AckedSeq == head {
			return
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("leader replication %q with %d of %d records acked, want streaming with all", v.State, v.AckedSeq, head)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplFailoverSemisyncRecoversFromFollowerAlone is the acceptance
// scenario: a semisync leader acks a submit, dies immediately, and the
// promoted follower finishes the job under its original id with the
// same deterministic result an uninterrupted run produces — proving
// the submit was journaled on the follower before the 202 left the
// leader.
func TestReplFailoverSemisyncRecoversFromFollowerAlone(t *testing.T) {
	// Reference: the same job on a throwaway service, uninterrupted.
	refSvc, refTS := newDurableService(t, t.TempDir(), slowCfg(1))
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

	leaderCfg := slowCfg(1)
	leaderCfg.ReplMode = "semisync"
	leaderCfg.SemisyncTimeout = 10 * time.Second
	leader, lts := newReplLeader(t, t.TempDir(), leaderCfg)
	follower, fts := newReplFollower(t, t.TempDir(), lts.URL, Config{Workers: 1, QueueDepth: 8, CheckpointEvery: 2})
	waitCaughtUp(t, fts.URL)

	// A standby refuses mutations while following.
	if code := doJSON(t, http.MethodPost, fts.URL+"/v1/graphs", GraphSpec{Kind: "powerlaw", Vertices: 10, Edges: 20, Seed: 1}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("standby accepted a mutation: status %d", code)
	}

	gid := registerGraph(t, lts.URL, 7)
	waitStreaming(t, leader)
	var st JobStatus
	if code := doJSON(t, http.MethodPost, lts.URL+"/v1/jobs", JobRequest{
		GraphID: gid, Algo: "pr", Iterations: 40,
	}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	// Semisync: the 202 implies the follower journaled the submit — no
	// fallback may have fired, and the follower's applied cursor must
	// already cover the submit record.
	if n := leader.replStats.SemisyncFallbacks.Load(); n != 0 {
		t.Fatalf("semisync fell back %d times; the 202 is not follower-durable", n)
	}
	if got := follower.follower.AppliedSeq(); got == 0 {
		t.Fatal("follower applied nothing despite a semisync ack")
	}

	// Kill the leader immediately after the ack: the job must now be
	// recoverable from the follower alone.
	lts.Close()
	leader.Close()

	var view repl.StatusView
	if code := doJSON(t, http.MethodPost, fts.URL+"/v1/admin/promote", nil, &view); code != http.StatusOK {
		t.Fatalf("promote: status %d", code)
	}
	if view.Role != "leader" || view.Epoch == 0 {
		t.Fatalf("promoted view = %+v", view)
	}
	if follower.sched.Get(st.ID) == nil {
		t.Fatalf("job %s did not survive failover", st.ID)
	}
	waitJob(t, follower, st.ID)
	var final JobStatus
	doJSON(t, http.MethodGet, fts.URL+"/v1/jobs/"+st.ID, nil, &final)
	if final.State != JobDone {
		t.Fatalf("failed-over job: %q (%s)", final.State, final.Error)
	}
	if final.Result == nil || refSt.Result == nil {
		t.Fatal("missing results")
	}
	if final.Result.TotalCycles != refSt.Result.TotalCycles ||
		final.Result.Iterations != refSt.Result.Iterations ||
		final.Result.TopVertex != refSt.Result.TopVertex ||
		final.Result.TopScore != refSt.Result.TopScore {
		t.Errorf("failover result diverges from uninterrupted run:\n  ref %+v\n  got %+v",
			refSt.Result, final.Result)
	}

	// The promoted node now reports leader readiness.
	var ready struct {
		Role string `json:"role"`
	}
	if code := doJSON(t, http.MethodGet, fts.URL+"/readyz", nil, &ready); code != http.StatusOK || ready.Role != "leader" {
		t.Fatalf("promoted readyz: code %d role %q", code, ready.Role)
	}
}

// TestReplPromoteIdempotentAndStaleLeaderFenced promotes a follower
// while the old leader is still alive: the promote is idempotent
// (second call returns the same epoch and duplicates nothing) and the
// stale leader's stream is fenced into the terminal rejected state.
func TestReplPromoteIdempotentAndStaleLeaderFenced(t *testing.T) {
	leaderCfg := Config{Workers: 1, QueueDepth: 8, ReplHeartbeatEvery: 20 * time.Millisecond}
	leader, lts := newReplLeader(t, t.TempDir(), leaderCfg)
	t.Cleanup(func() {
		lts.Close()
		leader.Close()
	})
	follower, fts := newReplFollower(t, t.TempDir(), lts.URL, Config{Workers: 1, QueueDepth: 8})
	waitCaughtUp(t, fts.URL)

	gid := registerGraph(t, lts.URL, 3)
	var st JobStatus
	doJSON(t, http.MethodPost, lts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "bfs", Source: 0}, &st)
	waitJob(t, leader, st.ID)
	// The job's done channel closes before its finish record is
	// journaled, so wait for the record before reading the journal head.
	deadline := time.Now().Add(10 * time.Second)
	for !journaledFinish(leader, st.ID) {
		if !time.Now().Before(deadline) {
			t.Fatalf("job %s finish record never journaled", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Let the finish record replicate so the promote sees a settled job.
	for leader.replLeader.Load().AckedSeq() < leader.Store().Seq() {
		if !time.Now().Before(deadline) {
			t.Fatalf("follower acked %d of %d records", leader.replLeader.Load().AckedSeq(), leader.Store().Seq())
		}
		time.Sleep(5 * time.Millisecond)
	}

	var v1, v2 repl.StatusView
	if code := doJSON(t, http.MethodPost, fts.URL+"/v1/admin/promote", nil, &v1); code != http.StatusOK {
		t.Fatalf("promote #1: status %d", code)
	}
	if code := doJSON(t, http.MethodPost, fts.URL+"/v1/admin/promote", nil, &v2); code != http.StatusOK {
		t.Fatalf("promote #2: status %d", code)
	}
	if v1.Epoch != v2.Epoch || v2.Role != "leader" {
		t.Fatalf("double promote not idempotent: %+v vs %+v", v1, v2)
	}
	// Settled history is compacted away at promotion (same semantics as
	// restart recovery): the finished job is not re-run, and neither
	// promote resurrected it.
	if n := len(follower.sched.List()); n != 0 {
		t.Fatalf("promoted node re-ran %d settled jobs, want 0", n)
	}
	// Its id stays reserved, though — a fresh submit after failover must
	// not reuse it.
	var st2 JobStatus
	if code := doJSON(t, http.MethodPost, fts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "bfs", Source: 0}, &st2); code != http.StatusAccepted {
		t.Fatalf("submit after promote: status %d", code)
	}
	if st2.ID == st.ID {
		t.Fatalf("promoted node reissued settled job id %s", st.ID)
	}
	waitJob(t, follower, st2.ID)

	// The promoted node's fence post carries the bumped epoch and
	// fences the old leader permanently.
	for time.Now().Before(deadline) {
		if leader.ReplicationStatus().State == "rejected" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := leader.ReplicationStatus().State; got != "rejected" {
		t.Fatalf("stale leader state = %q, want rejected", got)
	}
}

// TestReplSemisyncFallbackWithoutFollower: semisync with no follower
// attached must not block submits — the ack falls back to async and the
// fallback is surfaced in metrics.
func TestReplSemisyncFallbackWithoutFollower(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 8, ReplMode: "semisync", SemisyncTimeout: 50 * time.Millisecond}
	svc, ts := newReplLeader(t, t.TempDir(), cfg)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	gid := registerGraph(t, ts.URL, 5)
	var st JobStatus
	t0 := time.Now()
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "pr", Iterations: 3}, &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if wall := time.Since(t0); wall > 5*time.Second {
		t.Fatalf("submit blocked %s in semisync with no follower", wall)
	}
	if n := svc.replStats.SemisyncFallbacks.Load(); n < 1 {
		t.Fatalf("SemisyncFallbacks = %d, want >= 1", n)
	}
	waitJob(t, svc, st.ID)
	text := scrapeMetrics(t, ts.URL)
	for _, want := range []string{"cosparsed_repl_state", "cosparsed_repl_semisync_fallbacks_total", "cosparsed_repl_lag_records", "cosparsed_repl_resyncs_total"} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// journaledFinish reports whether the service's journal holds jobID's
// finish record.
func journaledFinish(svc *Service, jobID string) bool {
	recs, _ := svc.Store().Replay()
	for _, r := range recs {
		if r.Type == store.RecFinish && r.JobID == jobID {
			return true
		}
	}
	return false
}

// TestReplSemisyncSkipsWaitWhileFollowerAbsent: a semisync ack waits
// only for a follower that is there. Once the leader has admitted a
// caught-up follower's tail poll, that follower's ack covers every 202;
// once it is gone the first submit waits out the timeout and the next
// ones do not wait at all; once a follower is back and streaming, acks
// are waited for again at once.
func TestReplSemisyncSkipsWaitWhileFollowerAbsent(t *testing.T) {
	const timeout = 500 * time.Millisecond
	leaderCfg := Config{Workers: 1, QueueDepth: 16, ReplMode: "semisync", SemisyncTimeout: timeout, ReplHeartbeatEvery: 20 * time.Millisecond}
	leader, lts := newReplLeader(t, t.TempDir(), leaderCfg)
	t.Cleanup(func() {
		lts.Close()
		leader.Close()
	})
	followerDir := t.TempDir()
	fcfg := Config{Workers: 1, QueueDepth: 8}
	follower, fts := newReplFollower(t, followerDir, lts.URL, fcfg)
	waitCaughtUp(t, fts.URL)
	gid := registerGraph(t, lts.URL, 5)
	waitStreaming(t, leader)

	submit := func() (time.Duration, JobStatus) {
		t.Helper()
		var st JobStatus
		t0 := time.Now()
		if code := doJSON(t, http.MethodPost, lts.URL+"/v1/jobs", JobRequest{GraphID: gid, Algo: "bfs", Source: 0}, &st); code != http.StatusAccepted {
			t.Fatalf("submit: status %d", code)
		}
		return time.Since(t0), st
	}
	// Present and caught up: every 202 is covered by the follower.
	for i := 0; i < 3; i++ {
		_, st := submit()
		if got := follower.follower.AppliedSeq(); got < leader.sched.Get(st.ID).replSeq {
			t.Fatalf("semisync 202 for seq %d with the follower at %d", leader.sched.Get(st.ID).replSeq, got)
		}
	}
	if n := leader.replStats.SemisyncFallbacks.Load(); n != 0 {
		t.Fatalf("%d fallbacks with a caught-up follower", n)
	}

	// Gone: the first submit waits at most the timeout and falls back;
	// the next ones return without waiting.
	fts.Close()
	follower.Close()
	if wall, _ := submit(); wall > timeout+time.Second {
		t.Fatalf("first submit without a follower took %s, want <= %s", wall, timeout)
	}
	if n := leader.replStats.SemisyncFallbacks.Load(); n != 1 {
		t.Fatalf("fallbacks after the follower left = %d, want 1", n)
	}
	for i := 0; i < 3; i++ {
		if wall, _ := submit(); wall >= timeout/10 {
			t.Fatalf("submit %d with the follower absent took %s, want < %s", i, wall, timeout/10)
		}
	}
	if n := leader.replStats.SemisyncFallbacks.Load(); n != 4 {
		t.Fatalf("fallbacks = %d, want 4", n)
	}

	// Back: a follower reopened on the same dir catches up, and the
	// next submit's 202 is covered again — no cooldown.
	back, bts := newReplFollower(t, followerDir, lts.URL, fcfg)
	waitCaughtUp(t, bts.URL)
	waitStreaming(t, leader)
	_, st := submit()
	if got := back.follower.AppliedSeq(); got < leader.sched.Get(st.ID).replSeq {
		t.Fatalf("semisync 202 for seq %d with the reopened follower at %d", leader.sched.Get(st.ID).replSeq, got)
	}
	if n := leader.replStats.SemisyncFallbacks.Load(); n != 4 {
		t.Fatalf("fallbacks after the follower returned = %d, want 4", n)
	}
}

// TestLeaderShutdownReleasesHeldPoll: a caught-up follower's poll is
// held for up to ReplHeartbeatEvery. With ReleaseReplication
// registered as a shutdown hook (as cosparsed does), an HTTP server
// shutdown answers that poll at once instead of waiting it out.
func TestLeaderShutdownReleasesHeldPoll(t *testing.T) {
	leader, lts := newReplLeader(t, t.TempDir(), Config{Workers: 1, QueueDepth: 4, ReplHeartbeatEvery: time.Minute})
	t.Cleanup(func() {
		lts.Close()
		leader.Close()
	})
	_, fts := newReplFollower(t, t.TempDir(), lts.URL, Config{Workers: 1, QueueDepth: 4})
	waitCaughtUp(t, fts.URL)
	waitStreaming(t, leader)
	time.Sleep(100 * time.Millisecond) // the tail poll is now held

	lts.Config.RegisterOnShutdown(leader.ReleaseReplication)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := lts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v after %v", err, time.Since(start))
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Shutdown took %v with a held poll", d)
	}
}
