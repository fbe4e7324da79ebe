package main

// Hot-standby failover chaos test: a follower process polls a leader
// cosparsed's journal and checkpoints, the leader is SIGKILLed with a
// mixed set of jobs in flight — two mid-checkpoint PageRanks pinning
// the workers, traversals queued behind them, and a fusable BFS pair —
// and the follower is promoted. Every job must finish on the promoted
// node under its original id with a result bit-identical to an
// uninterrupted run, on both execution backends. This is the
// end-to-end proof of the replication layer: resync, log polling,
// checkpoint replication, epoch fencing, and promote-time recovery,
// all through real binaries and real process death.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"
)

// submitFailoverJobs issues the fixed mixed workload and returns the
// job ids in request order. The two 150-iteration PageRanks go first
// so they occupy both workers (and checkpoint) while the traversals
// and the fusable pair wait in the queue.
func submitFailoverJobs(t *testing.T, d *daemon) []string {
	t.Helper()
	var ids []string
	single := func(body map[string]any) {
		t.Helper()
		var st jobView
		if code := d.postJSON(t, "/v1/jobs", body, &st); code != http.StatusAccepted {
			t.Fatalf("submit %v: %d; logs:\n%s", body, code, d.logs.String())
		}
		ids = append(ids, st.ID)
	}
	single(map[string]any{"graph_id": "g1", "algo": "pr", "iterations": 150, "backend": "sim", "timeout_ms": 120000})
	single(map[string]any{"graph_id": "g1", "algo": "pr", "iterations": 150, "backend": "native", "timeout_ms": 120000})
	single(map[string]any{"graph_id": "g1", "algo": "bfs", "source": 0, "backend": "sim", "timeout_ms": 120000})
	single(map[string]any{"graph_id": "g1", "algo": "bfs", "source": 0, "backend": "native", "timeout_ms": 120000})
	single(map[string]any{"graph_id": "g1", "algo": "sssp", "source": 1, "backend": "sim", "timeout_ms": 120000})
	single(map[string]any{"graph_id": "g1", "algo": "sssp", "source": 1, "backend": "native", "timeout_ms": 120000})
	// A compatible pair sent as two concurrent submits: these fuse into
	// one multi-source run when the gather window catches them together.
	// Their ids come back in request order, whichever the daemon
	// assigned first.
	pair := make([]jobView, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, src := range []int32{2, 3} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(map[string]any{
				"graph_id": "g1", "algo": "bfs", "source": src, "backend": "native", "timeout_ms": 120000,
			})
			if err != nil {
				errs[i] = err
				return
			}
			resp, err := http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&pair[i])
		}()
	}
	wg.Wait()
	for i, st := range pair {
		if errs[i] != nil {
			t.Fatalf("pair submit %d: %v; logs:\n%s", i, errs[i], d.logs.String())
		}
		ids = append(ids, st.ID)
	}
	return ids
}

// TestChaosFailover: SIGKILL the leader with >= 8 mixed-algo jobs in
// flight, promote the follower, and demand every job complete there
// bit-identically to an uninterrupted run.
func TestChaosFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemons; skipped in -short")
	}
	bin := daemonBinary(t)

	// Uninterrupted reference run of the same workload.
	ref := startDaemon(t, bin, t.TempDir(), freePort(t), "-workers", "2")
	ref.registerGraph(t)
	refIDs := submitFailoverJobs(t, ref)
	want := make([]jobView, len(refIDs))
	for i, id := range refIDs {
		v := ref.waitDone(t, id)
		if v.State != "done" || v.Result == nil {
			t.Fatalf("reference job %s: %+v; logs:\n%s", id, v, ref.logs.String())
		}
		want[i] = v
	}
	ref.sigkill(t) // done with it; teardown can be abrupt

	// Leader + follower pair. Semisync couples every 202 to the
	// follower's journal ack, so the kill below cannot race a submit.
	leaderPort, followerPort := freePort(t), freePort(t)
	leader := startDaemon(t, bin, t.TempDir(), leaderPort,
		"-workers", "2",
		"-repl-mode", "semisync",
		"-semisync-timeout", "10s",
		"-repl-heartbeat", "100ms",
	)
	follower := startDaemon(t, bin, t.TempDir(), followerPort,
		"-workers", "2",
		"-follow", leader.base,
	)

	// Wait for the initial resync to commit: /readyz flips to 200 with
	// replication "caught-up".
	deadline := time.Now().Add(30 * time.Second)
	for {
		var ready struct {
			Role        string `json:"role"`
			Replication string `json:"replication"`
		}
		if code := follower.getJSON(t, "/readyz", &ready); code == http.StatusOK {
			if ready.Role != "follower" || ready.Replication != "caught-up" {
				t.Fatalf("ready follower reports %+v", ready)
			}
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("follower never caught up; logs:\n%s", follower.logs.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	leader.registerGraph(t)
	ids := submitFailoverJobs(t, leader)
	if len(ids) != len(refIDs) {
		t.Fatalf("submitted %d jobs, reference ran %d", len(ids), len(refIDs))
	}
	// The concurrent pair may take its two ids in either order, so the
	// ids are compared as a set and results by request order.
	if !slices.Equal(slices.Sorted(slices.Values(ids)), slices.Sorted(slices.Values(refIDs))) {
		t.Fatalf("job id drift: got %q, reference %q", ids, refIDs)
	}

	// Let both running PageRanks persist (and ship) checkpoints, then
	// kill the leader abruptly with everything else still queued.
	leader.waitCheckpointed(t, ids[0], 2)
	leader.waitCheckpointed(t, ids[1], 2)
	leader.sigkill(t)

	var view struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
	}
	if code := follower.postJSON(t, "/v1/admin/promote", nil, &view); code != http.StatusOK {
		t.Fatalf("promote: %d %+v; logs:\n%s", code, view, follower.logs.String())
	}
	if view.Role != "leader" || view.Epoch == 0 {
		t.Fatalf("promoted view = %+v", view)
	}
	if code := follower.getJSON(t, "/readyz", nil); code != http.StatusOK {
		t.Fatalf("promoted node not ready: %d", code)
	}

	// Every job — resumed, restarted, or refused? none may be refused —
	// must settle on the promoted node with the reference result.
	for i, id := range ids {
		got := follower.waitDone(t, id)
		if got.State != "done" || got.Result == nil {
			t.Fatalf("failed-over job %s: %+v; logs:\n%s", id, got, follower.logs.String())
		}
		r, w := got.Result, want[i].Result
		if r.Summary != w.Summary || r.TopVertex != w.TopVertex || r.TopScore != w.TopScore ||
			r.Reached != w.Reached || r.MeanDistance != w.MeanDistance ||
			r.Iterations != w.Iterations || r.TotalCycles != w.TotalCycles || r.EnergyJ != w.EnergyJ {
			t.Errorf("job %s (#%d) diverges from uninterrupted run:\n  ref %+v\n  got %+v", id, i+1, w, r)
		}
	}
}
