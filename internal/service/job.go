package service

import (
	"context"
	"sync"
	"time"

	"cosparse"
)

// JobRequest is the JSON body of POST /v1/jobs.
type JobRequest struct {
	// GraphID names a registered graph ("g1", ...).
	GraphID string `json:"graph_id"`
	// Tenant attributes the job to a client for fair queueing and
	// per-tenant quotas; empty defaults to the graph id, so distinct
	// graphs are isolated from each other even when clients never set
	// the field.
	Tenant string `json:"tenant,omitempty"`
	// Algo is one of bfs, sssp, pr, cf (cosparse.ParseAlgo vocabulary).
	Algo string `json:"algo"`
	// Source is the start vertex for bfs/sssp. -1 (the default when
	// omitted is 0) is rejected; out-of-range sources fail validation.
	Source int32 `json:"source,omitempty"`
	// Iterations bounds pr/cf (default 10).
	Iterations int `json:"iterations,omitempty"`
	// Alpha is the PageRank damping factor (default 0.15).
	Alpha float64 `json:"alpha,omitempty"`
	// Beta/Lambda are the CF learning rate and regularization
	// (defaults 0.05 / 0.01).
	Beta   float64 `json:"beta,omitempty"`
	Lambda float64 `json:"lambda,omitempty"`
	// Tiles/PEs select the simulated geometry (defaults from server
	// config). Each distinct geometry is a separate cached engine.
	Tiles int `json:"tiles,omitempty"`
	PEs   int `json:"pes,omitempty"`
	// Backend selects the execution backend: "sim" (cycle-accurate
	// timing model, the default) or "native" (goroutine-parallel host
	// execution, wall-clock timing only). Defaults from server config.
	Backend string `json:"backend,omitempty"`
	// TimeoutMs caps the job's run time (default and ceiling from
	// server config). The deadline is enforced between SpMV
	// iterations.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// IncludeTrace attaches the full per-iteration report to the
	// result (can be large; off by default).
	IncludeTrace bool `json:"include_trace,omitempty"`
}

// JobResult is the payload of a successfully finished job.
type JobResult struct {
	Algo    string `json:"algo"`
	Backend string `json:"backend,omitempty"`
	Summary string `json:"summary"`

	// Algorithm-specific headline numbers.
	Reached      int     `json:"reached,omitempty"`       // bfs, sssp
	MeanDistance float64 `json:"mean_distance,omitempty"` // sssp
	TopVertex    int32   `json:"top_vertex,omitempty"`    // pr
	TopScore     float64 `json:"top_score,omitempty"`     // pr

	// Simulation accounting.
	Iterations  int     `json:"iterations"`
	TotalCycles int64   `json:"total_cycles"`
	SimSeconds  float64 `json:"sim_seconds"`
	EnergyJ     float64 `json:"energy_j"`
	// WallMs is host wall-clock time spent running the job.
	WallMs float64 `json:"wall_ms"`

	// Report is the full per-iteration trace when include_trace was
	// set.
	Report *cosparse.Report `json:"report,omitempty"`
}

// JobTrace is the payload of GET /v1/jobs/{id}/trace: the job's
// per-iteration decision trace (the Fig. 9 rows) with enough context to
// interpret it standalone. For failed or cancelled jobs it covers the
// iterations that completed before the stop — Partial is set so
// clients can tell.
type JobTrace struct {
	JobID   string   `json:"job_id"`
	GraphID string   `json:"graph_id"`
	Algo    string   `json:"algo"`
	System  string   `json:"system"`
	State   JobState `json:"state"`
	Partial bool     `json:"partial,omitempty"`
	// TotalIterations counts every iteration executed; TraceDropped how
	// many fell out of the bounded trace window (0 = complete trace).
	TotalIterations int                      `json:"total_iterations"`
	TraceDropped    int                      `json:"trace_dropped,omitempty"`
	TotalCycles     int64                    `json:"total_cycles"`
	Iterations      []cosparse.IterationStat `json:"iterations"`
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on a worker.
	JobRunning JobState = "running"
	// JobDone: finished successfully; Result is set.
	JobDone JobState = "done"
	// JobFailed: finished with an error (including deadline exceeded).
	JobFailed JobState = "failed"
	// JobCancelled: stopped by a client DELETE.
	JobCancelled JobState = "cancelled"
)

// JobStatus is the JSON view of a job (GET /v1/jobs/{id}).
type JobStatus struct {
	ID      string   `json:"id"`
	GraphID string   `json:"graph_id"`
	Tenant  string   `json:"tenant,omitempty"`
	Algo    string   `json:"algo"`
	System  string   `json:"system"`
	State   JobState `json:"state"`
	// Resumed marks a job recovered from the durability journal after a
	// restart (it continues from its last checkpoint when one exists).
	Resumed bool `json:"resumed,omitempty"`
	// CheckpointIter is the iteration of the most recent persisted
	// checkpoint; CheckpointAgeSeconds how long ago it was written.
	// Absent until the first checkpoint lands.
	CheckpointIter       int     `json:"checkpoint_iter,omitempty"`
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	// Fused marks a job that executed as a lane of a coalesced batch;
	// BatchLanes is how many lanes that fused run carried.
	Fused      bool       `json:"fused,omitempty"`
	BatchLanes int        `json:"batch_lanes,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
}

// Job is one scheduled algorithm run.
type Job struct {
	id      string
	req     JobRequest
	algo    cosparse.Algo
	sys     cosparse.System
	backend cosparse.Backend
	graph   *GraphEntry

	// tenant is the fair-queueing bucket the job is charged to (the
	// request's tenant, defaulting to the graph id). Set by buildJob
	// before the job enters the scheduler and immutable afterwards.
	tenant string
	// enqueued is when SubmitJob accepted the job; the dequeue sojourn
	// (now - enqueued) drives the CoDel-style shedding controller and
	// the cosparsed_queue_delay_seconds histogram. Written under the
	// scheduler mutex and read only by the dequeuing worker.
	enqueued time.Time

	ctx    context.Context
	cancel context.CancelFunc
	// done closes exactly once, after the terminal state is counted and
	// journaled; tests and clients synchronize on it instead of polling.
	done chan struct{}
	// release unpins registry resources; called once on the terminal
	// transition.
	release func()

	// timeout is the job's effective deadline budget, kept so the
	// durability journal can restore an equivalent deadline on
	// recovery.
	timeout time.Duration
	// replSeq is the journal sequence number of the submit record (0
	// without durability); semisync submit acks wait on it. Written by
	// journalSubmit inside SubmitJob and read by the same goroutine
	// after SubmitJob returns, so it needs no lock.
	replSeq uint64
	// recovered marks a job re-enqueued from the journal on startup.
	recovered bool

	mu    sync.Mutex
	state JobState
	// resumed marks a run that actually restored a persisted checkpoint
	// (recovered jobs without a usable snapshot restart from scratch and
	// stay false).
	resumed bool
	// ckptIter/ckptAt track the most recent persisted checkpoint.
	ckptIter int
	ckptAt   time.Time
	// fused/batchLanes record execution as a coalesced-batch lane.
	fused      bool
	batchLanes int
	errMsg     string
	result     *JobResult
	created    time.Time
	started    time.Time
	finished   time.Time
	// trace is the run's per-iteration report, kept even when the
	// client did not ask for include_trace and even for partial runs
	// (deadline, cancellation, fault) — it feeds the trace endpoint and
	// the slow-job logs. Bounded by the engine's trace cap.
	trace *cosparse.Report
}

// ID returns the job id ("j1", ...).
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		GraphID: j.req.GraphID,
		Tenant:  j.tenant,
		Algo:    j.algo.String(),
		System:  j.sys.String(),
		State:   j.state,
		Resumed: j.resumed,
		Error:   j.errMsg,
		Result:  j.result,
		Created: j.created,
	}
	if !j.ckptAt.IsZero() {
		st.CheckpointIter = j.ckptIter
		st.CheckpointAgeSeconds = time.Since(j.ckptAt).Seconds()
	}
	st.Fused = j.fused
	st.BatchLanes = j.batchLanes
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// markFused records that the job executed as one lane of a fused
// batch of the given size.
func (j *Job) markFused(lanes int) {
	j.mu.Lock()
	j.fused = true
	j.batchLanes = lanes
	j.mu.Unlock()
}

// markResumed records that the run restored a persisted checkpoint.
func (j *Job) markResumed() {
	j.mu.Lock()
	j.resumed = true
	j.mu.Unlock()
}

// setTrace stores the run's report for the trace endpoint.
func (j *Job) setTrace(rep *cosparse.Report) {
	if rep == nil {
		return
	}
	j.mu.Lock()
	j.trace = rep
	j.mu.Unlock()
}

// Trace snapshots the per-iteration trace, or nil when the run has not
// produced one yet.
func (j *Job) Trace() *JobTrace {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.trace == nil {
		return nil
	}
	rep := j.trace
	iters := rep.TotalIterations
	if iters == 0 {
		iters = len(rep.Iterations)
	}
	return &JobTrace{
		JobID:           j.id,
		GraphID:         j.req.GraphID,
		Algo:            j.algo.String(),
		System:          j.sys.String(),
		State:           j.state,
		Partial:         j.state == JobFailed || j.state == JobCancelled || j.state == JobRunning,
		TotalIterations: iters,
		TraceDropped:    rep.TraceDropped,
		TotalCycles:     rep.TotalCycles,
		Iterations:      rep.Iterations,
	}
}

// noteCheckpoint records a persisted checkpoint for the status API.
func (j *Job) noteCheckpoint(iter int) {
	j.mu.Lock()
	j.ckptIter = iter
	j.ckptAt = time.Now()
	j.mu.Unlock()
}

// start transitions queued → running; false if the job was already
// terminal (e.g. cancelled while queued).
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	j.started = time.Now()
	return true
}

// finish moves the job to a terminal state; only the first call wins.
// It releases registry pins; the winner's Scheduler.settle closes done
// once the transition is counted and journaled.
func (j *Job) finish(state JobState, res *JobResult, errMsg string) bool {
	j.mu.Lock()
	if j.state == JobDone || j.state == JobFailed || j.state == JobCancelled {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.result = res
	j.errMsg = errMsg
	j.finished = time.Now()
	j.mu.Unlock()
	if j.release != nil {
		j.release()
	}
	return true
}
