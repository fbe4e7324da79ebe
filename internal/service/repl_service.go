package service

import (
	"context"
	"log"
	"log/slog"
	"net/http"
	"strings"

	"cosparse/internal/repl"
)

// This file is the service side of hot-standby replication: role
// wiring (leader vs. standby), the promote path, the replication HTTP
// endpoints, and the semisync submit-ack hook. The mechanics — frame
// shipping, resync, epoch fencing — live in internal/repl.

// isStandby reports whether this instance is currently a follower
// (mutating endpoints answer 503 until promotion).
func (s *Service) isStandby() bool { return s.standby.Load() }

// guardStandby wraps a mutating handler: a standby refuses the request
// so clients (and load balancers honoring /readyz) fail over to the
// leader instead of submitting work that would diverge from the
// replicated journal.
func (s *Service) guardStandby(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.isStandby() {
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable,
				"standby: this node follows %s and is read-only until promoted", s.cfg.FollowLeader)
			return
		}
		h(w, r)
	}
}

// newReplicator builds the leader-side replicator at the given epoch.
func (s *Service) newReplicator(epoch uint64) *repl.Replicator {
	return repl.NewReplicator(repl.LeaderConfig{
		Store:           s.db,
		DataDir:         s.cfg.DataDir,
		Epoch:           epoch,
		Mode:            s.replMode,
		SemisyncTimeout: s.cfg.SemisyncTimeout,
		HeartbeatEvery:  s.cfg.ReplHeartbeatEvery,
		Faults:          s.cfg.Faults,
		Stats:           s.replStats,
		Logger:          s.replLog(),
	})
}

// replLog adapts the service's slog logger to the plain log.Logger the
// repl package takes.
func (s *Service) replLog() *log.Logger {
	return log.New(slogWriter{log: s.log}, "", 0)
}

type slogWriter struct{ log *slog.Logger }

func (w slogWriter) Write(p []byte) (int, error) {
	w.log.Info(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// Promote turns a standby into the leader: it bumps and persists the
// replication epoch (fencing the old leader's stream), replays the
// replicated journal through the normal recovery path — re-enqueueing
// every unfinished job under its original id, resuming from shipped
// checkpoints where they exist — and starts a leader replicator so a
// future standby can attach. Idempotent: promoting a node that is
// already the leader (including a double promote) is a no-op that
// returns the current status.
func (s *Service) Promote(reason string) (repl.StatusView, error) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.isStandby() {
		return s.ReplicationStatus(), nil
	}
	epoch, err := s.follower.MarkPromoted()
	if err != nil {
		return s.ReplicationStatus(), err
	}
	s.replEpoch.Store(epoch)
	s.log.Info("promoting to leader",
		slog.String("reason", reason),
		slog.Uint64("epoch", epoch))
	// MarkPromoted fences the replication handlers (409 from here on),
	// so the journal is quiescent; mutating client endpoints stay 503
	// until the standby flag flips below, so recovery owns the
	// scheduler and registry exactly as it does at startup.
	if err := s.recover(); err != nil {
		return s.ReplicationStatus(), err
	}
	s.replLeader.Store(s.newReplicator(epoch))
	s.standby.Store(false)
	rec := s.recovered
	s.log.Info("promotion complete",
		slog.Uint64("epoch", epoch),
		slog.Int("graphs", rec.GraphsRestored),
		slog.Int("jobs_resumed", rec.JobsResumed),
		slog.Int("jobs_restarted", rec.JobsRestarted),
		slog.Int("jobs_unrecoverable", rec.JobsFailed))
	return s.ReplicationStatus(), nil
}

// ReplicationStatus renders this node's replication view for the
// /replication endpoint.
func (s *Service) ReplicationStatus() repl.StatusView {
	if rl := s.replLeader.Load(); rl != nil {
		return rl.Status()
	}
	if s.follower != nil {
		return s.follower.Status()
	}
	return repl.StatusView{Role: "leader", State: "off", Mode: s.replMode.String()}
}

// semisyncWait holds a submit ack until the follower has acknowledged
// the submit's journal record, falling back to async (counted in
// cosparsed_repl_semisync_fallbacks_total) when the timeout fires or
// no follower is reachable. seq 0 means the submit was not journaled
// (in-memory service) — nothing to wait for. Repeated fallbacks open
// the ack circuit breaker: the wait is then skipped entirely (pure
// async, each skip counted in cosparsed_repl_semisync_skipped_total)
// until a periodic probe wait finds the follower acking again.
func (s *Service) semisyncWait(r *http.Request, seq uint64) {
	rl := s.replLeader.Load()
	if rl == nil || rl.Mode() != repl.ModeSemiSync || seq == 0 {
		return
	}
	br := rl.AckBreaker()
	if !br.Allow() {
		s.replStats.BreakerSkipped.Add(1)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rl.SemisyncTimeout())
	defer cancel()
	ok := rl.WaitApplied(ctx, seq)
	br.Record(ok)
	if !ok {
		s.replStats.SemisyncFallbacks.Add(1)
		s.log.Warn("semisync fallback: follower did not ack in time",
			slog.Uint64("seq", seq))
	}
}

// handleReplRegister is the leader's registration endpoint: a follower
// announces its URL and epoch, and the leader begins streaming to it
// (starting with a full resync). A follower whose epoch is ahead of
// ours was promoted past us — this node is a stale leader and must not
// attach to it.
func (s *Service) handleReplRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL   string `json:"url"`
		Epoch uint64 `json:"epoch"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, "bad register request", err)
		return
	}
	if req.URL == "" {
		writeError(w, http.StatusBadRequest, "register: url is required")
		return
	}
	if s.isStandby() {
		writeError(w, http.StatusConflict, "standby: cannot accept followers")
		return
	}
	rl := s.replLeader.Load()
	if rl == nil {
		writeError(w, http.StatusServiceUnavailable, "replication requires a data dir")
		return
	}
	if ours := s.replEpoch.Load(); req.Epoch > ours {
		writeError(w, http.StatusConflict,
			"stale leader epoch: follower is at epoch %d, this leader at %d", req.Epoch, ours)
		return
	}
	if err := rl.AttachFollower(req.URL); err != nil {
		writeError(w, http.StatusInternalServerError, "attach follower: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": s.replEpoch.Load()})
}

// handlePromote is the manual failover trigger.
func (s *Service) handlePromote(w http.ResponseWriter, r *http.Request) {
	view, err := s.Promote("admin request")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "promote: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleReplication serves the replication status view.
func (s *Service) handleReplication(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ReplicationStatus())
}
