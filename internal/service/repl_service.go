package service

import (
	"context"
	"log/slog"
	"net/http"

	"cosparse/internal/repl"
)

// This file is the service side of hot-standby replication: role
// wiring (leader vs. standby), the promote path, the replication HTTP
// endpoints, and the semisync submit-ack hook. The mechanics — log
// polling, resync, epoch fencing — live in internal/repl.

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
		Epoch:           epoch,
		SemisyncTimeout: s.cfg.SemisyncTimeout,
		HeartbeatEvery:  s.cfg.ReplHeartbeatEvery,
		Faults:          s.cfg.Faults,
		Stats:           s.replStats,
		Logger:          s.log,
	})
}

// Promote turns a standby into the leader: it bumps and persists the
// replication epoch and stops polling (the follower's loop then posts
// the new epoch to the old leader), replays the replicated journal
// through the normal recovery path — re-enqueueing every unfinished
// job under its original id, resuming from replicated checkpoints
// where they exist — and starts a leader replicator so a future
// standby can poll it. Idempotent: promoting a node that is already the
// leader (including a double promote) is a no-op that returns the
// current status.
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
	s.log.Info("promoting to leader",
		slog.String("reason", reason),
		slog.Uint64("epoch", epoch))
	// MarkPromoted waited out any apply in progress and stops the poll
	// loop, so the journal is quiescent; mutating client endpoints stay
	// 503 until the standby flag flips below, so recovery owns the
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
		v := rl.Status()
		v.Mode = s.replMode.String()
		return v
	}
	if s.follower != nil {
		return s.follower.Status()
	}
	return repl.StatusView{Role: "leader", State: "off", Mode: s.replMode.String()}
}

// semisyncWait holds a submit ack until the follower has acknowledged
// the submit's journal record, falling back to async (counted in
// cosparsed_repl_semisync_fallbacks_total) when the timeout fires, or
// at once when no follower has polled within the timeout. seq 0 means
// the submit was not journaled (in-memory service) — nothing to wait
// for.
func (s *Service) semisyncWait(r *http.Request, seq uint64) {
	rl := s.replLeader.Load()
	if rl == nil || s.replMode != repl.ModeSemiSync || seq == 0 {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.SemisyncTimeout)
	defer cancel()
	if rl.WaitApplied(ctx, seq) {
		return
	}
	s.replStats.SemisyncFallbacks.Add(1)
	if ctx.Err() != nil {
		s.log.Warn("semisync fallback: follower did not ack in time",
			slog.Uint64("seq", seq))
	}
}

// handleRepl serves the replication routes from this node's
// replicator; a standby (or an in-memory node) has none and answers
// 409, which sends a poller to resync later and ends a fence post.
func (s *Service) handleRepl(w http.ResponseWriter, r *http.Request) {
	rl := s.replLeader.Load()
	if rl == nil {
		writeError(w, http.StatusConflict, "not a replication leader")
		return
	}
	rl.ServeHTTP(w, r)
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
