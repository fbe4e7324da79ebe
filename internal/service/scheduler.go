package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// ErrQueueFull is returned by Submit when the bounded queue is
// saturated; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: scheduler closed")

// ErrDraining is returned by Submit during a graceful drain; the HTTP
// layer maps it to 503 Service Unavailable.
var ErrDraining = errors.New("service: draining, not accepting jobs")

// Shed reasons, used in ShedError.Reason and as the reason label on
// cosparsed_jobs_shed_total.
const (
	// ShedQueueDelay: the CoDel-style controller saw dequeue sojourns
	// above target for a full interval — the queue is standing, not
	// absorbing a burst.
	ShedQueueDelay = "queue_delay"
	// ShedDeadline: the estimated queue wait already exceeds the job's
	// deadline budget, so running it could only waste a worker.
	ShedDeadline = "deadline_unmeetable"
	// ShedTenantQuota: the tenant is over its fair share of the queue
	// while the queue is under pressure.
	ShedTenantQuota = "tenant_quota"
	// ShedFairnessEvict: a queued job of an over-share tenant was
	// evicted to admit a job from an under-share tenant at full queue.
	ShedFairnessEvict = "fairness_evict"
	// ShedExpired: the job's deadline expired while it was queued; it
	// was settled at dequeue without occupying a worker run.
	ShedExpired = "expired"
)

// ShedError is returned by SubmitJob when admission control refuses a
// job for a reason other than hard queue saturation: standing queue
// delay, an unmeetable deadline, or a tenant over its fair share. The
// HTTP layer maps it to 429 with a Retry-After header.
type ShedError struct {
	// Reason is one of the Shed* constants.
	Reason string
	// RetryAfter is the client backoff hint, surfaced as a Retry-After
	// header (floored to 1s).
	RetryAfter time.Duration
	// Detail is a human-readable explanation.
	Detail string
}

// Error renders the shed reason and detail.
func (e *ShedError) Error() string {
	return "service: job shed (" + e.Reason + "): " + e.Detail
}

// PanicError is the terminal error of a job whose run panicked. The
// worker recovered, recorded the stack, and stayed alive; the job is
// failed (a panic is a suspected logic bug).
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value followed by the recorded stack.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// deadlineAdmitMinSamples is how many completed runs the wait
// estimator needs before deadline-aware admission turns on; below it
// the estimate is noise (and tests that hold workers in hooks would
// otherwise trip it).
const deadlineAdmitMinSamples = 16

// tenantQueue is one tenant's FIFO of queued jobs.
type tenantQueue struct {
	name string
	jobs []*Job
}

// Scheduler runs jobs from a bounded set of per-tenant FIFO queues on
// a fixed worker pool, dispatching round-robin across tenants so one
// flooding tenant cannot starve the rest. Saturation is surfaced to
// the caller as ErrQueueFull (or a *ShedError when admission control
// refuses earlier) rather than queuing unboundedly — backpressure is
// the contract. Each job runs once. Workers are panic-isolated (a
// panicking job fails with its stack recorded; the worker survives).
type Scheduler struct {
	workers int
	depth   int
	run     func(*Job) (*JobResult, error)
	m       *Metrics

	// beforeRun, when set (tests), is called on the worker goroutine
	// after dequeue and before execution; it may block to hold the
	// worker in a known state.
	beforeRun func(*Job)

	// Durability hooks (all optional; nil when the service runs without
	// a data dir). onSubmit runs under the scheduler lock after the id
	// is assigned but before the job becomes visible — an error vetoes
	// the submission, so a job the journal could not record never runs.
	// onStart/onFinish record the matching transitions from the worker
	// goroutine, after the in-memory transition succeeded.
	onSubmit func(*Job) error
	onStart  func(*Job)
	onFinish func(j *Job, state JobState, errMsg string)
	// durable switches Drain to journal-preserving semantics: queued
	// jobs are left unsettled (their journal records stay live) so a
	// restart re-enqueues them, instead of being failed.
	durable bool

	// Overload-control knobs, set by the service layer before traffic
	// and read under mu.
	//
	// shedTarget/shedInterval drive the CoDel-style controller: when
	// dequeue sojourns stay above shedTarget for shedInterval, new
	// submissions shed until a sojourn drops back under target (or the
	// queue empties). shedTarget <= 0 disables delay- and
	// deadline-based shedding entirely.
	shedTarget   time.Duration
	shedInterval time.Duration

	mu      sync.Mutex
	tenants map[string]*tenantQueue
	// rr lists tenants that currently have queued jobs, in round-robin
	// dispatch order; rrNext is the next index to serve.
	rr     []*tenantQueue
	rrNext int
	queued int

	jobs     map[string]*Job
	order    []string // insertion order for listings
	nextID   int
	closed   bool
	draining bool

	// CoDel controller state (under mu).
	shedding    bool
	aboveSince  time.Time
	lastSojourn time.Duration

	// EWMA of observed per-job worker occupancy, feeding the
	// deadline-aware admission estimate (under mu).
	avgRunSec  float64
	runSamples int

	// ready carries one wake-up token per enqueued job; workers block
	// on it and then pop the next job round-robin. The token count may
	// exceed the queued-job count (expired jobs are swept in batches),
	// never the reverse, so a token without a job is a harmless
	// spurious wake-up.
	ready chan struct{}
	quit  chan struct{}
	wg    sync.WaitGroup
}

// NewScheduler builds a scheduler with the given worker count and
// queue depth (both floored to 1) around run, the job executor.
// Shedding defaults to off; the service layer arms it from its config.
func NewScheduler(workers, depth int, run func(*Job) (*JobResult, error), m *Metrics) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if depth <= 0 {
		depth = 1
	}
	if m == nil {
		m = NewMetrics()
	}
	s := &Scheduler{
		workers: workers,
		depth:   depth,
		run:     run,
		m:       m,
		tenants: make(map[string]*tenantQueue),
		jobs:    make(map[string]*Job),
		ready:   make(chan struct{}, depth),
		quit:    make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// fairShareLocked is the per-tenant queue cap: depth divided by the
// number of tenants that would have queued jobs (including the asking
// tenant), floored to 1. Admission enforces it only once the queue is
// at least half full, so a lone tenant on an idle service still gets
// the whole queue.
func (s *Scheduler) fairShareLocked(asking *tenantQueue) int {
	active := len(s.rr)
	if asking == nil || len(asking.jobs) == 0 {
		active++ // the asking tenant is not in rr yet
	}
	if active < 1 {
		active = 1
	}
	share := s.depth / active
	if share < 1 {
		share = 1
	}
	return share
}

// oldestHeadAgeLocked returns the wait so far of the oldest queued
// head-of-line job, or 0 when nothing is queued.
func (s *Scheduler) oldestHeadAgeLocked(now time.Time) time.Duration {
	var oldest time.Time
	for _, tq := range s.rr {
		if h := tq.jobs[0]; oldest.IsZero() || h.enqueued.Before(oldest) {
			oldest = h.enqueued
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

func (s *Scheduler) setSheddingLocked(on bool) {
	if s.shedding == on {
		return
	}
	s.shedding = on
	if on {
		s.m.ShedActive.Store(1)
	} else {
		s.m.ShedActive.Store(0)
	}
}

// noteSojournLocked feeds one dequeue sojourn into the CoDel-style
// controller: shedding arms after a full shedInterval of sojourns
// above target and disarms on the first sojourn back under target (or
// when the queue empties).
func (s *Scheduler) noteSojournLocked(soj time.Duration, now time.Time) {
	if s.shedTarget <= 0 {
		return
	}
	s.lastSojourn = soj
	if soj < s.shedTarget {
		s.aboveSince = time.Time{}
		s.setSheddingLocked(false)
		return
	}
	if s.aboveSince.IsZero() {
		s.aboveSince = now
	}
	if now.Sub(s.aboveSince) >= s.shedInterval {
		s.setSheddingLocked(true)
	}
}

// overloadedLocked reports whether new submissions should shed for
// standing queue delay. Besides the sojourn-driven state it checks the
// oldest head-of-line wait directly, so stalled workers (no dequeues,
// hence no sojourn samples) still trip the controller.
func (s *Scheduler) overloadedLocked(now time.Time) bool {
	if s.shedTarget <= 0 {
		return false
	}
	if s.shedding {
		return true
	}
	if age := s.oldestHeadAgeLocked(now); age > s.shedTarget+s.shedInterval {
		s.lastSojourn = age
		s.setSheddingLocked(true)
		return true
	}
	return false
}

// shedRetryAfterLocked estimates how long a shed client should back
// off: the excess sojourn over target, clamped to [1s, 30s].
func (s *Scheduler) shedRetryAfterLocked() time.Duration {
	d := s.lastSojourn - s.shedTarget
	if d < time.Second {
		d = time.Second
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// enqueueLocked appends j to its tenant queue, adding the tenant to
// the round-robin ring on its first job.
func (s *Scheduler) enqueueLocked(j *Job) {
	tq := s.tenants[j.tenant]
	if tq == nil {
		tq = &tenantQueue{name: j.tenant}
		s.tenants[j.tenant] = tq
	}
	if len(tq.jobs) == 0 {
		s.rr = append(s.rr, tq)
	}
	tq.jobs = append(tq.jobs, j)
	s.queued++
}

// removeRRLocked drops tq from the round-robin ring and the tenant
// map, keeping rrNext pointed at the same next tenant.
func (s *Scheduler) removeRRLocked(tq *tenantQueue) {
	for i, q := range s.rr {
		if q == tq {
			s.rr = append(s.rr[:i], s.rr[i+1:]...)
			if i < s.rrNext {
				s.rrNext--
			}
			break
		}
	}
	delete(s.tenants, tq.name)
}

// evictForLocked implements fairness push-out at full queue: when the
// submitting tenant is under its fair share and some other tenant is
// over it, the over-share tenant's youngest queued job is removed and
// returned for the caller to settle (outside the lock), making room.
// Returns nil when the newcomer has no fairness claim — the common
// single-tenant case degrades to plain ErrQueueFull.
func (s *Scheduler) evictForLocked(j *Job) *Job {
	newTQ := s.tenants[j.tenant]
	share := s.fairShareLocked(newTQ)
	if newTQ != nil && len(newTQ.jobs) >= share {
		return nil
	}
	var hog *tenantQueue
	for _, tq := range s.rr {
		if tq.name == j.tenant || len(tq.jobs) <= share {
			continue
		}
		if hog == nil || len(tq.jobs) > len(hog.jobs) {
			hog = tq
		}
	}
	if hog == nil {
		return nil
	}
	last := len(hog.jobs) - 1
	victim := hog.jobs[last]
	hog.jobs[last] = nil
	hog.jobs = hog.jobs[:last]
	if len(hog.jobs) == 0 {
		s.removeRRLocked(hog)
	}
	s.queued--
	s.m.JobsQueued.Add(-1)
	s.m.TenantQueuedAdd(victim.tenant, -1)
	return victim
}

// SubmitJob enqueues j. On queue saturation it returns ErrQueueFull,
// and on admission-control refusal a *ShedError, without taking
// ownership (the caller releases its pins).
func (s *Scheduler) SubmitJob(j *Job, timeout time.Duration) error {
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return ErrDraining
		}
		return ErrClosed
	}
	// Capacity is checked under the lock before the id is spent or the
	// journal written: a rejected submission spends no id and writes no
	// journal record. At full queue a tenant under its fair share may
	// instead push out the youngest job of an over-share tenant.
	var victim *Job
	if s.queued >= s.depth {
		victim = s.evictForLocked(j)
		if victim == nil {
			s.mu.Unlock()
			// No context exists yet — nothing to cancel; the caller
			// releases its graph pin.
			s.m.JobsRejected.Add(1)
			s.m.TenantShed(j.tenant)
			return ErrQueueFull
		}
	}
	if shed := s.admitLocked(j, timeout, now); shed != nil {
		s.mu.Unlock()
		if victim != nil {
			// The eviction stands even though the newcomer was then
			// refused: the queue was overloaded either way.
			s.settleEvicted(victim, j.tenant)
		}
		s.m.TenantShed(j.tenant)
		return shed
	}
	j.id = fmt.Sprintf("j%d", s.nextID+1)
	j.timeout = timeout
	if s.onSubmit != nil {
		// Journal the submission while the job is still invisible; an
		// append failure vetoes the job (durability is the contract).
		// The fsync under the scheduler lock briefly serializes
		// submissions, which is the price of "accepted means durable".
		if err := s.onSubmit(j); err != nil {
			s.mu.Unlock()
			if victim != nil {
				s.settleEvicted(victim, j.tenant)
			}
			return err
		}
	}
	// An eviction kept the queue length flat, so the victim's wake-up
	// token serves the newcomer.
	s.queueLocked(j, now, victim == nil)
	s.nextID++
	s.mu.Unlock()
	if victim != nil {
		s.settleEvicted(victim, j.tenant)
	}
	return nil
}

// queueLocked makes j, whose id and timeout are set, a queued job: its
// state, deadline context and done channel, its place in its tenant's
// queue and the job table, the submit counters and, if wake is set, a
// worker wake-up. SubmitJob and Restore share it. The wake-up is
// non-blocking: a full token channel already holds at least one
// wake-up per queued job, so dropping the send loses nothing.
func (s *Scheduler) queueLocked(j *Job, now time.Time, wake bool) {
	j.created = now
	j.state = JobQueued
	j.done = make(chan struct{})
	j.ctx, j.cancel = context.WithTimeout(context.Background(), j.timeout)
	j.enqueued = now
	s.enqueueLocked(j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if wake {
		select {
		case s.ready <- struct{}{}:
		default:
		}
	}
	s.m.JobsSubmitted.Add(1)
	s.m.JobsQueued.Add(1)
	s.m.TenantSubmitted(j.tenant)
	s.m.TenantQueuedAdd(j.tenant, 1)
}

// admitLocked runs the soft admission checks (queue-delay shedding,
// deadline feasibility, tenant quota) and returns a *ShedError when
// the job should be refused. Hard capacity is checked by the caller.
func (s *Scheduler) admitLocked(j *Job, timeout time.Duration, now time.Time) *ShedError {
	if s.overloadedLocked(now) {
		s.m.ShedDelay.Add(1)
		return &ShedError{
			Reason:     ShedQueueDelay,
			RetryAfter: s.shedRetryAfterLocked(),
			Detail:     fmt.Sprintf("queue sojourn %v above %v target", s.lastSojourn.Round(time.Millisecond), s.shedTarget),
		}
	}
	if s.shedTarget > 0 && timeout > 0 && s.runSamples >= deadlineAdmitMinSamples {
		// Expected wait before this job would run: the jobs ahead of it
		// spread over the workers, plus its own run.
		est := s.avgRunSec * float64(s.queued/s.workers+1)
		if est > timeout.Seconds() {
			s.m.ShedDeadline.Add(1)
			return &ShedError{
				Reason:     ShedDeadline,
				RetryAfter: time.Duration((est - timeout.Seconds()) * float64(time.Second)),
				Detail: fmt.Sprintf("estimated wait %.2fs exceeds %.2fs deadline budget",
					est, timeout.Seconds()),
			}
		}
	}
	tq := s.tenants[j.tenant]
	if tq != nil && len(tq.jobs) > 0 {
		share := s.fairShareLocked(tq)
		if s.queued*2 >= s.depth && len(tq.jobs) >= share {
			s.m.ShedQuota.Add(1)
			return &ShedError{
				Reason:     ShedTenantQuota,
				RetryAfter: time.Second,
				Detail:     fmt.Sprintf("tenant %q has %d jobs queued, share is %d", j.tenant, len(tq.jobs), share),
			}
		}
	}
	return nil
}

// settleEvicted fails a fairness-evicted job (outside the scheduler
// lock; settle journals the terminal transition).
func (s *Scheduler) settleEvicted(victim *Job, forTenant string) {
	victim.cancel()
	s.m.ShedEvicted.Add(1)
	s.m.TenantShed(victim.tenant)
	s.settle(victim, JobFailed, nil,
		fmt.Sprintf("shed under overload: tenant %q over fair share, evicted to admit tenant %q", victim.tenant, forTenant))
}

// Restore re-inserts a journal-recovered job under its original id and
// enqueues it. Called only during startup recovery, before the HTTP
// listener accepts traffic, so id collisions with fresh submissions
// cannot happen (nextID is bumped past every restored id). Recovery
// bypasses admission control: an accepted-and-journaled job is owed an
// execution attempt.
func (s *Scheduler) Restore(j *Job, id string, timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if _, dup := s.jobs[id]; dup {
		s.mu.Unlock()
		return fmt.Errorf("service: job %q already restored", id)
	}
	if s.queued >= s.depth {
		s.mu.Unlock()
		return ErrQueueFull
	}
	j.id = id
	j.timeout = timeout
	j.recovered = true
	s.queueLocked(j, time.Now(), true)
	var n int
	if _, err := fmt.Sscanf(id, "j%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
	return nil
}

// ReserveIDs advances the id allocator past n, so ids of jobs that
// settled before a restart (and so never pass through Restore) are not
// reissued to fresh submissions.
func (s *Scheduler) ReserveIDs(n int) {
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}

// Get returns the job by id, or nil.
func (s *Scheduler) Get(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// List returns every job's status in submission order.
func (s *Scheduler) List() []JobStatus {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	return out
}

// Cancel stops the job: a queued job terminates immediately, a running
// one at its next iteration boundary. It returns false for unknown
// ids.
func (s *Scheduler) Cancel(id string) bool {
	j := s.Get(id)
	if j == nil {
		return false
	}
	j.cancel()
	// A queued job will never reach a worker transition, so settle it
	// here; a running job settles on its worker, which observes the
	// cancelled context at the next iteration boundary. The settled
	// job stays in its tenant queue until a worker sweeps it.
	j.mu.Lock()
	queued := j.state == JobQueued
	j.mu.Unlock()
	if queued {
		s.settle(j, JobCancelled, nil, "cancelled by client")
	}
	return true
}

// settle drives the job's terminal transition, counts it, journals it
// through onFinish, and only then closes done, so a waiter on Done sees
// the counters and the finish record. Only the first settle of a job
// wins.
func (s *Scheduler) settle(j *Job, state JobState, res *JobResult, errMsg string) bool {
	if !j.finish(state, res, errMsg) {
		return false
	}
	switch state {
	case JobDone:
		s.m.JobsDone.Add(1)
		s.m.TenantDone(j.tenant)
	case JobFailed:
		s.m.JobsFailed.Add(1)
	case JobCancelled:
		s.m.JobsCancelled.Add(1)
	}
	if s.onFinish != nil {
		s.onFinish(j, state, errMsg)
	}
	close(j.done)
	return true
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.m.WorkersAlive.Add(1)
	defer s.m.WorkersAlive.Add(-1)
	for {
		select {
		case <-s.quit:
			return
		case <-s.ready:
			if j := s.pop(); j != nil {
				s.process(j)
			}
		}
	}
}

// pop removes and returns the next runnable job, serving tenants
// round-robin. Jobs whose deadline already expired (or that were
// cancelled while queued) are settled on the spot — in a sweep, not a
// worker run each — so a queue full of corpses costs the pool one
// dequeue, not one run per corpse. Returns nil when the
// queues are empty (a spurious token wake-up).
func (s *Scheduler) pop() *Job {
	s.mu.Lock()
	for {
		j := s.popLocked()
		if j == nil {
			s.mu.Unlock()
			return nil
		}
		if err := j.ctx.Err(); err != nil {
			s.mu.Unlock()
			s.settleUnrun(j, err)
			s.mu.Lock()
			continue
		}
		s.mu.Unlock()
		return j
	}
}

// popLocked dequeues the head of the next tenant in round-robin order,
// feeding the sojourn into the shedding controller and the queue-delay
// histogram.
func (s *Scheduler) popLocked() *Job {
	if len(s.rr) == 0 {
		return nil
	}
	if s.rrNext >= len(s.rr) {
		s.rrNext = 0
	}
	tq := s.rr[s.rrNext]
	j := tq.jobs[0]
	tq.jobs[0] = nil
	tq.jobs = tq.jobs[1:]
	if len(tq.jobs) == 0 {
		s.removeRRLocked(tq)
	} else {
		s.rrNext++
	}
	s.queued--
	now := time.Now()
	soj := now.Sub(j.enqueued)
	s.m.QueueDelay.Observe(soj.Seconds())
	s.noteSojournLocked(soj, now)
	if s.queued == 0 {
		// An empty queue cannot be overloaded; reset the controller.
		s.aboveSince = time.Time{}
		s.setSheddingLocked(false)
	}
	s.m.JobsQueued.Add(-1)
	s.m.TenantQueuedAdd(j.tenant, -1)
	return j
}

// settleUnrun settles a job popped with its context already dead:
// cancelled jobs were settled by their canceller (no-op here);
// deadline-expired ones fail with the queued-expiry message.
func (s *Scheduler) settleUnrun(j *Job, err error) {
	j.cancel()
	if errors.Is(err, context.Canceled) {
		s.settle(j, JobCancelled, nil, err.Error())
		return
	}
	if s.settle(j, JobFailed, nil, "job deadline expired while queued: "+err.Error()) {
		s.m.ShedExpired.Add(1)
		s.m.TenantShed(j.tenant)
	}
}

// process drives one dequeued job to a terminal state. Every path
// settles the job; no error or panic can kill the worker.
func (s *Scheduler) process(j *Job) {
	if s.beforeRun != nil {
		s.beforeRun(j)
	}
	if err := j.ctx.Err(); err != nil {
		// Expired while queued (or while held in the test hook): never
		// start the run.
		s.settleUnrun(j, err)
		return
	}
	if !j.start() {
		// Terminal already (cancelled while queued): the canceller
		// settled it.
		j.cancel()
		return
	}
	if s.onStart != nil {
		s.onStart(j)
	}
	s.m.JobsRunning.Add(1)
	t0 := time.Now()
	res, err := s.runSafe(j)
	s.noteRun(time.Since(t0))
	s.m.JobsRunning.Add(-1)
	switch {
	case err == nil:
		s.settle(j, JobDone, res, "")
	case errors.Is(err, context.Canceled):
		s.settle(j, JobCancelled, nil, err.Error())
	default:
		s.settle(j, JobFailed, nil, err.Error())
	}
	j.cancel() // release the deadline timer
}

// noteRun feeds one completed run's wall time (worker occupancy, not
// kernel speed) into the EWMA behind deadline-aware admission.
func (s *Scheduler) noteRun(d time.Duration) {
	s.mu.Lock()
	sec := d.Seconds()
	if s.runSamples == 0 {
		s.avgRunSec = sec
	} else {
		s.avgRunSec += 0.2 * (sec - s.avgRunSec)
	}
	s.runSamples++
	s.mu.Unlock()
}

// runSafe invokes the job executor with panic isolation: a panic is
// recovered into a *PanicError carrying the stack, counted, and the
// worker goroutine survives.
func (s *Scheduler) runSafe(j *Job) (res *JobResult, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.m.Panics.Add(1)
			res, err = nil, &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return s.run(j)
}

// clearQueuesLocked empties every tenant queue and returns the
// stranded jobs; queue-depth gauges are settled here so callers only
// decide the jobs' fates.
func (s *Scheduler) clearQueuesLocked() []*Job {
	var stranded []*Job
	for _, tq := range s.rr {
		stranded = append(stranded, tq.jobs...)
	}
	s.tenants = make(map[string]*tenantQueue)
	s.rr = nil
	s.rrNext = 0
	s.queued = 0
	for _, j := range stranded {
		s.m.JobsQueued.Add(-1)
		s.m.TenantQueuedAdd(j.tenant, -1)
	}
	return stranded
}

// Drain is the graceful counterpart of Close: it stops intake (Submit
// returns ErrDraining), fails every still-queued job with a drain
// error, and lets in-flight jobs run to completion. If ctx expires
// first, the remaining jobs are cancelled and Drain waits for the
// workers to observe the cancellation before returning ctx's error; a
// clean drain returns nil. Idempotent with Close — whichever runs
// first wins.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed, s.draining = true, true
	// Strand the queues. Workers may race us for individual jobs up to
	// this lock; those run to completion, which only improves on the
	// contract. In durable mode queued jobs are left unsettled: their
	// submit records stay live in the journal with no terminal
	// transition, so the next startup re-enqueues them — the queue
	// survives the restart instead of being failed.
	stranded := s.clearQueuesLocked()
	s.mu.Unlock()
	for _, j := range stranded {
		j.cancel()
		if !s.durable {
			s.settle(j, JobFailed, nil, "server draining: queued job abandoned before running")
		}
	}

	close(s.quit) // workers exit once their current job settles
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		jobs := make([]*Job, 0, len(s.jobs))
		for _, j := range s.jobs {
			jobs = append(jobs, j)
		}
		s.mu.Unlock()
		for _, j := range jobs {
			j.cancel()
		}
		<-done
		return ctx.Err()
	}
}

// Close stops accepting submissions, cancels every live job, and waits
// for the workers to drain.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
	close(s.quit)
	s.wg.Wait()
	// Settle anything still queued after the workers stopped. In
	// durable mode the jobs stay unsettled so a restart re-enqueues
	// them (same contract as Drain).
	s.mu.Lock()
	stranded := s.clearQueuesLocked()
	s.mu.Unlock()
	for _, j := range stranded {
		if !s.durable {
			s.settle(j, JobCancelled, nil, "server shutting down")
		}
	}
}
