package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"time"

	"cosparse"
	"cosparse/internal/store"
)

// This file is the service side of the durability layer: the journal
// hooks the scheduler and handlers call on every lifecycle transition,
// and the startup recovery that folds the replayed journal back into a
// live registry + queue.
//
// Journal discipline: a submission is journaled before the job becomes
// visible (an append failure vetoes it — "accepted" means "durable");
// start/finish are journaled after the in-memory transition, so
// a crash between transition and append replays the job at its
// previous stage, which recovery handles (re-running a job that had
// started is exactly what resume-from-checkpoint is for). Cancelled
// terminal states reached while draining or closing are deliberately
// NOT journaled: a shutdown is a restart in progress, and those jobs
// must come back.

func nowNs() int64 { return time.Now().UnixNano() }

// journalSubmit runs under the scheduler lock, before the job is
// enqueued. Errors veto the submission.
func (s *Service) journalSubmit(j *Job) error {
	if s.db == nil {
		return nil
	}
	reqJSON, err := json.Marshal(j.req)
	if err != nil {
		return fmt.Errorf("journal submit: %w", err)
	}
	seq, err := s.db.AppendSeq(store.Record{
		Type:       store.RecSubmit,
		TimeUnixNs: nowNs(),
		JobID:      j.id,
		GraphID:    j.req.GraphID,
		Request:    reqJSON,
		TimeoutMS:  j.timeout.Milliseconds(),
	})
	if err != nil {
		return err
	}
	// The submit's sequence number is what a semisync ack waits on.
	j.replSeq = seq
	return nil
}

func (s *Service) journalStart(j *Job) {
	if s.db == nil {
		return
	}
	if err := s.db.Append(store.Record{Type: store.RecStart, TimeUnixNs: nowNs(), JobID: j.id}); err != nil {
		s.log.Warn("journal start failed", slog.String("job", j.id), slog.String("err", err.Error()))
	}
}

func (s *Service) journalFinish(j *Job, state JobState, errMsg string) {
	if s.db == nil {
		return
	}
	if state == JobCancelled && s.draining.Load() {
		// A cancellation by Drain or Close is a restart in progress, not
		// a client decision: leave the job's journal records live so the
		// next startup resumes it.
		return
	}
	if err := s.db.Append(store.Record{
		Type:       store.RecFinish,
		TimeUnixNs: nowNs(),
		JobID:      j.id,
		State:      string(state),
		Error:      errMsg,
	}); err != nil {
		s.log.Warn("journal finish failed", slog.String("job", j.id), slog.String("err", err.Error()))
	}
	// The checkpoint is dead weight once the job settles. Journal
	// first, delete second: a crash in between leaves an orphan
	// snapshot that recovery's stale-snapshot sweep removes.
	if err := s.db.DeleteSnapshots(j.id); err != nil {
		s.log.Warn("snapshot cleanup failed", slog.String("job", j.id), slog.String("err", err.Error()))
	}
}

// journalGraph records a successful registration; the caller unwinds
// the registration if the journal refuses it.
func (s *Service) journalGraph(id string, spec GraphSpec) error {
	if s.db == nil {
		return nil
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("journal graph: %w", err)
	}
	return s.db.Append(store.Record{Type: store.RecGraph, TimeUnixNs: nowNs(), GraphID: id, GraphSpec: specJSON})
}

func (s *Service) journalGraphDelete(id string) {
	if s.db == nil {
		return
	}
	if err := s.db.Append(store.Record{Type: store.RecGraphDelete, TimeUnixNs: nowNs(), GraphID: id}); err != nil {
		// The in-memory delete already happened; the graph would
		// reappear after a restart. Surface it rather than fail the
		// request — the client's delete did succeed.
		s.log.Warn("journal graph delete failed", slog.String("graph", id), slog.String("err", err.Error()))
	}
}

// RecoveryStats summarizes one startup recovery.
type RecoveryStats struct {
	// Records is the number of journal records replayed.
	Records int
	// Truncated reports whether a torn journal tail was discarded.
	Truncated bool
	// GraphsRestored counts graphs rebuilt from their journaled specs.
	GraphsRestored int
	// JobsResumed / JobsRestarted / JobsFailed count re-enqueued jobs
	// by outcome: resumed from a checkpoint, restarted from scratch,
	// or unrecoverable (bad graph, invalid request, full queue).
	JobsResumed   int
	JobsRestarted int
	JobsFailed    int
	// SnapshotsDropped counts stale checkpoint files removed (settled
	// or unknown jobs).
	SnapshotsDropped int
}

// recoveredJob is the folded journal state of one job.
type recoveredJob struct {
	id       string
	request  json.RawMessage
	timeout  time.Duration
	started  bool
	finished bool
}

// recover replays the journal into the registry and scheduler. At
// startup it runs before the HTTP listener exists; at promotion the
// listener is live, but the standby guard keeps every mutating
// endpoint at 503 until Promote flips the role after recover returns,
// so the registry and scheduler are still exclusively ours (read
// endpoints take their own locks and race benignly).
func (s *Service) recover() error {
	recs, err := s.db.Replay()
	if err != nil {
		return err
	}
	rstats := s.db.OpenStats()
	s.recovered = RecoveryStats{Records: rstats.Records, Truncated: rstats.Truncated}
	if rstats.Truncated {
		s.log.Warn("journal had a torn tail", slog.Int64("bytes_discarded", rstats.TornBytes))
	}

	// Fold the record stream. Folding is order-independent per id (a
	// finish for an id not yet seen still settles it), which keeps
	// recovery correct even if concurrent appends interleaved submit
	// and finish across goroutines.
	graphs := map[string]json.RawMessage{}
	var graphOrder []string
	jobs := map[string]*recoveredJob{}
	var jobOrder []string
	jobFor := func(id string) *recoveredJob {
		rj, ok := jobs[id]
		if !ok {
			rj = &recoveredJob{id: id}
			jobs[id] = rj
			jobOrder = append(jobOrder, id)
		}
		return rj
	}
	for _, r := range recs {
		switch r.Type {
		case store.RecGraph:
			if _, dup := graphs[r.GraphID]; !dup {
				graphOrder = append(graphOrder, r.GraphID)
			}
			graphs[r.GraphID] = r.GraphSpec
		case store.RecGraphDelete:
			delete(graphs, r.GraphID)
		case store.RecSubmit:
			rj := jobFor(r.JobID)
			rj.request = r.Request
			rj.timeout = time.Duration(r.TimeoutMS) * time.Millisecond
		case store.RecStart:
			jobFor(r.JobID).started = true
		case store.RecRetry:
			// Written by builds that re-ran failed jobs; nothing to fold,
			// but a known type, so it replays without a warning.
		case store.RecFinish:
			jobFor(r.JobID).finished = true
		default:
			// Forward-compatibility: an unknown record type from a
			// newer writer is skipped, not fatal — the segment version
			// header catches truly incompatible formats.
			s.log.Warn("skipping unknown journal record type", slog.String("type", string(r.Type)))
		}
	}

	// Rebuild graphs first — jobs reference them. A graph that fails to
	// rebuild takes its jobs down as unrecoverable rather than aborting
	// startup.
	badGraphs := map[string]bool{}
	for _, id := range graphOrder {
		raw, ok := graphs[id]
		if !ok {
			continue // deleted later in the journal
		}
		var spec GraphSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			s.log.Error("recovery: undecodable graph spec", slog.String("graph", id), slog.String("err", err.Error()))
			badGraphs[id] = true
			continue
		}
		if _, err := cosparse.ParseFormat(spec.Format); err != nil {
			// A journal written by a build that had more storage formats
			// ("bbcsr"). Answers are format-independent; only the bytes
			// charged change, so the graph and its jobs survive as auto.
			s.log.Warn("recovery: graph spec names a storage format this build does not have; rebuilding as auto",
				slog.String("graph", id), slog.String("format", spec.Format))
			spec.Format = "auto"
		}
		if err := s.reg.Restore(id, spec); err != nil {
			s.log.Error("recovery: graph rebuild failed", slog.String("graph", id), slog.String("err", err.Error()))
			badGraphs[id] = true
			continue
		}
		s.recovered.GraphsRestored++
	}

	// Which jobs have a checkpoint on disk (for the outcome metric; the
	// snapshot itself is validated lazily in runJob, falling back to
	// the previous generation or a fresh start).
	snapIDs, err := s.db.SnapshotJobIDs()
	if err != nil {
		return err
	}
	hasSnap := map[string]bool{}
	for _, id := range snapIDs {
		hasSnap[id] = true
	}

	// Reserve every id the journal has seen — settled jobs never pass
	// through Restore, and their ids must not be reissued to fresh
	// submissions after the restart.
	maxID := 0
	for _, id := range jobOrder {
		if n := jobIDNum(id); n > maxID {
			maxID = n
		}
	}
	s.sched.ReserveIDs(maxID)

	// Re-enqueue unfinished jobs in id order so recovered ids replay in
	// their original submission order.
	sort.Slice(jobOrder, func(a, b int) bool { return jobIDNum(jobOrder[a]) < jobIDNum(jobOrder[b]) })
	live := map[string]bool{}
	for _, id := range jobOrder {
		rj := jobs[id]
		if rj.finished {
			continue
		}
		outcome := s.recoverJob(rj, badGraphs, hasSnap[id])
		switch outcome {
		case "resumed":
			s.recovered.JobsResumed++
			s.m.JobsRecoveredResumed.Add(1)
			live[id] = true
		case "restarted":
			s.recovered.JobsRestarted++
			s.m.JobsRecoveredRestarted.Add(1)
			live[id] = true
		default:
			s.recovered.JobsFailed++
			s.m.JobsRecoveredFailed.Add(1)
		}
	}

	// Drop snapshots whose jobs are settled or unknown (including the
	// snapshot-newer-than-journal case: a checkpoint written after the
	// last durable journal record for a finished job).
	for _, id := range snapIDs {
		if live[id] {
			continue
		}
		if err := s.db.DeleteSnapshots(id); err != nil {
			s.log.Warn("recovery: stale snapshot cleanup failed", slog.String("job", id), slog.String("err", err.Error()))
			continue
		}
		s.recovered.SnapshotsDropped++
	}

	// Compact: rewrite the journal to exactly the live state (graphs
	// plus the submit records of re-enqueued jobs), dropping settled
	// history. Re-enqueued jobs will journal fresh start records when
	// workers pick them up.
	var compacted []store.Record
	for _, id := range graphOrder {
		if raw, ok := graphs[id]; ok && !badGraphs[id] {
			compacted = append(compacted, store.Record{Type: store.RecGraph, TimeUnixNs: nowNs(), GraphID: id, GraphSpec: raw})
		}
	}
	for _, id := range jobOrder {
		if !live[id] {
			continue
		}
		rj := jobs[id]
		compacted = append(compacted, store.Record{
			Type:       store.RecSubmit,
			TimeUnixNs: nowNs(),
			JobID:      rj.id,
			Request:    rj.request,
			TimeoutMS:  rj.timeout.Milliseconds(),
		})
	}
	if err := s.db.Compact(compacted); err != nil {
		return err
	}

	if s.recovered.Records > 0 {
		s.log.Info("recovery complete",
			slog.Int("records", s.recovered.Records),
			slog.Int("graphs", s.recovered.GraphsRestored),
			slog.Int("resumed", s.recovered.JobsResumed),
			slog.Int("restarted", s.recovered.JobsRestarted),
			slog.Int("unrecoverable", s.recovered.JobsFailed),
			slog.Bool("torn_tail", s.recovered.Truncated),
		)
	}
	return nil
}

// recoverJob re-enqueues one unfinished job, returning its outcome
// ("resumed", "restarted", or "failed"). Failures journal a terminal
// record so the next startup does not retry a hopeless job forever.
func (s *Service) recoverJob(rj *recoveredJob, badGraphs map[string]bool, snap bool) string {
	fail := func(why string) string {
		s.log.Error("recovery: job unrecoverable", slog.String("job", rj.id), slog.String("err", why))
		if err := s.db.Append(store.Record{
			Type:       store.RecFinish,
			TimeUnixNs: nowNs(),
			JobID:      rj.id,
			State:      string(JobFailed),
			Error:      "recovery failed: " + why,
		}); err != nil {
			s.log.Warn("journal finish failed", slog.String("job", rj.id), slog.String("err", err.Error()))
		}
		return "failed"
	}
	if len(rj.request) == 0 {
		return fail("no submit record survived (finish-only id)")
	}
	var req JobRequest
	if err := json.Unmarshal(rj.request, &req); err != nil {
		return fail("undecodable request: " + err.Error())
	}
	if badGraphs[req.GraphID] {
		return fail("graph " + req.GraphID + " could not be rebuilt")
	}
	j, err := s.buildJob(req)
	if err != nil {
		return fail("request no longer valid: " + err.Error())
	}
	timeout := rj.timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if err := s.sched.Restore(j, rj.id, timeout); err != nil {
		j.release()
		return fail("re-enqueue: " + err.Error())
	}
	if snap {
		// A snapshot on disk is what drives resumption (checkpointContext
		// loads it regardless of how far the previous attempt got), so it
		// is also what classifies the outcome.
		return "resumed"
	}
	return "restarted"
}

// jobIDNum extracts the numeric part of a "j<N>" id for ordering;
// malformed ids sort first.
func jobIDNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j"))
	if err != nil {
		return -1
	}
	return n
}

// checkpointContext wraps a job's context with the run's checkpoint
// configuration: a sink persisting snapshots through the store, and —
// for journal-recovered jobs — the latest valid checkpoint to resume
// from. Without a data dir it returns j.ctx unchanged, so the
// in-memory path runs exactly as before.
func (s *Service) checkpointContext(j *Job) context.Context {
	if s.db == nil {
		return j.ctx
	}
	cfg := &cosparse.CheckpointConfig{}
	if s.cfg.CheckpointEvery > 0 {
		cfg.Every = s.cfg.CheckpointEvery
		cfg.Sink = func(cp *cosparse.Checkpoint) error {
			data := cp.Encode()
			if err := s.db.WriteSnapshot(j.id, data); err != nil {
				// Degraded durability must not kill a healthy run: log,
				// count, keep computing. The previous snapshot (if any)
				// remains the resume point.
				s.m.CheckpointFailures.Add(1)
				s.log.Warn("checkpoint write failed",
					slog.String("job", j.id),
					slog.Int("iter", cp.Iteration()),
					slog.String("err", err.Error()))
				return nil
			}
			s.m.CheckpointsWritten.Add(1)
			j.noteCheckpoint(cp.Iteration())
			// List the job for the follower's next poll, which fetches
			// the image (best-effort, latest wins), so a promotion
			// resumes mid-run instead of recomputing from iteration 0.
			if rl := s.replLeader.Load(); rl != nil {
				rl.MarkDirty(j.id)
			}
			return nil
		}
	}
	if j.recovered {
		images, err := s.db.LoadSnapshots(j.id)
		if err != nil {
			s.log.Warn("checkpoint load failed", slog.String("job", j.id), slog.String("err", err.Error()))
		}
		for i, img := range images {
			cp, err := cosparse.DecodeCheckpoint(img)
			if err != nil {
				// Torn or corrupt generation: fall back to the previous
				// one, or to a fresh start.
				s.log.Warn("discarding invalid checkpoint",
					slog.String("job", j.id),
					slog.Int("generation", i),
					slog.String("err", err.Error()))
				continue
			}
			cfg.Resume = cp
			j.markResumed()
			s.log.Info("resuming from checkpoint",
				slog.String("job", j.id),
				slog.String("algo", cp.Algorithm()),
				slog.Int("iter", cp.Iteration()))
			break
		}
	}
	if cfg.Every == 0 && cfg.Resume == nil {
		return j.ctx
	}
	return cosparse.ContextWithCheckpoint(j.ctx, cfg)
}
