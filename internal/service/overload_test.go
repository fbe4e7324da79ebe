package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosparse/internal/fault"
)

// postJob submits one job over HTTP and returns the status code, the
// Retry-After header (empty when absent), and the decoded body.
func postJob(t *testing.T, base string, req JobRequest) (int, string, JobStatus) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("post job: %v", err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode %q: %v", data, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), st
}

// holdFirstWorker installs a beforeRun hook that parks the first job at
// the gate until release is closed, and counts every gate crossing.
func holdFirstWorker(svc *Service) (entered chan *Job, release chan struct{}, runs *atomic.Int64) {
	entered = make(chan *Job, 1)
	release = make(chan struct{})
	runs = new(atomic.Int64)
	svc.sched.beforeRun = func(j *Job) {
		runs.Add(1)
		select {
		case entered <- j:
			<-release
		default:
		}
	}
	return entered, release, runs
}

// TestOverloadFairnessEviction: a hostile tenant fills the whole queue;
// an under-share tenant's submissions push out the hog's youngest jobs
// instead of bouncing, up to the newcomer's fair share.
func TestOverloadFairnessEviction(t *testing.T) {
	const depth = 8
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: depth, ShedTarget: -1})
	gid := registerGraph(t, ts.URL, 211)
	entered, release, _ := holdFirstWorker(svc)
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	// One hog job occupies the worker; its queue slot frees up again.
	code, _, _ := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "hog"})
	if code != http.StatusAccepted {
		t.Fatalf("blocker: status %d", code)
	}
	<-entered

	// Alone on the queue, the hog's fair share is the full depth.
	var hogIDs []string
	for i := 0; i < depth; i++ {
		code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "hog"})
		if code != http.StatusAccepted {
			t.Fatalf("hog job %d: status %d, want 202 (single tenant owns the whole queue)", i, code)
		}
		hogIDs = append(hogIDs, st.ID)
	}
	if code, ra, _ := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "hog"}); code != http.StatusTooManyRequests {
		t.Fatalf("hog beyond depth: status %d, want 429", code)
	} else if ra == "" {
		t.Fatal("429 without a Retry-After header")
	}

	// A polite tenant shows up at a full queue: its fair share is
	// depth/2 = 4, the hog is over share, so each polite submission
	// evicts the hog's youngest queued job.
	var politeIDs []string
	for i := 0; i < depth/2; i++ {
		code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "polite"})
		if code != http.StatusAccepted {
			t.Fatalf("polite job %d: status %d, want 202 via fairness eviction", i, code)
		}
		politeIDs = append(politeIDs, st.ID)
	}
	if got := svc.m.ShedEvicted.Load(); got != int64(depth/2) {
		t.Fatalf("evictions = %d, want %d", got, depth/2)
	}
	// At its share the polite tenant has no further claim: quota 429.
	code, ra, _ := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "polite"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("polite at share: status %d, want 429", code)
	}
	if ra == "" {
		t.Fatal("quota 429 without a Retry-After header")
	}

	// The hog's youngest jobs (the last depth/2 submitted) were the
	// victims; its oldest still run.
	for i, id := range hogIDs {
		j := svc.sched.Get(id)
		st := j.Status()
		if i < depth/2 {
			if st.State == JobFailed && strings.Contains(st.Error, "evicted") {
				t.Fatalf("old hog job %s evicted; evictions must take the youngest", id)
			}
			continue
		}
		waitJob(t, svc, id)
		st = j.Status()
		if st.State != JobFailed || !strings.Contains(st.Error, "evicted to admit tenant") {
			t.Fatalf("young hog job %s: state %q err %q, want fairness eviction", id, st.State, st.Error)
		}
	}

	released = true
	close(release)
	svc.sched.beforeRun = nil
	for _, id := range politeIDs {
		waitJob(t, svc, id)
		if st := svc.sched.Get(id).Status(); st.State != JobDone {
			t.Fatalf("polite job %s: state %q err %q", id, st.State, st.Error)
		}
	}
}

// TestOverloadRoundRobinDispatch: with two tenants queued, a single
// worker serves them alternately, not in arrival order.
func TestOverloadRoundRobinDispatch(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8, ShedTarget: -1})
	gid := registerGraph(t, ts.URL, 223)

	var mu sync.Mutex
	var order []string
	entered := make(chan *Job, 1)
	release := make(chan struct{})
	first := true
	svc.sched.beforeRun = func(j *Job) {
		if first {
			first = false
			entered <- j
			<-release
			return
		}
		mu.Lock()
		order = append(order, j.tenant)
		mu.Unlock()
	}

	postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: "a"})
	<-entered
	var ids []string
	for _, tn := range []string{"a", "a", "a", "a", "b", "b"} {
		code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, Tenant: tn})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: status %d", tn, code)
		}
		ids = append(ids, st.ID)
	}
	close(release)
	for _, id := range ids {
		waitJob(t, svc, id)
	}

	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	// Tenant a entered the ring first; dispatch alternates until b runs
	// dry, then a drains.
	if want := "a,b,a,b,a,a"; got != want {
		t.Fatalf("dispatch order = %s, want %s (round-robin across tenants)", got, want)
	}
}

// TestOverloadQueueDelayShed: once queued jobs wait past the shed
// target for a full interval, new submissions bounce with 429 and a
// Retry-After hint; the controller disarms when the queue drains.
func TestOverloadQueueDelayShed(t *testing.T) {
	svc, ts := newTestService(t, Config{
		Workers: 1, QueueDepth: 8,
		ShedTarget: 30 * time.Millisecond, ShedInterval: 10 * time.Millisecond,
	})
	gid := registerGraph(t, ts.URL, 227)
	entered, release, _ := holdFirstWorker(svc)

	postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1})
	<-entered
	var ids []string
	for i := 0; i < 4; i++ {
		code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1})
		if code != http.StatusAccepted {
			t.Fatalf("queued job %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}

	// Let the head-of-line wait grow past target+interval, then submit:
	// the controller must shed even though no dequeue has sampled a
	// sojourn yet (the worker is pinned).
	time.Sleep(60 * time.Millisecond)
	code, ra, _ := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit under standing delay: status %d, want 429", code)
	}
	if ra == "" {
		t.Fatal("shed 429 without a Retry-After header")
	}
	if got := svc.m.ShedDelay.Load(); got < 1 {
		t.Fatalf("ShedDelay = %d, want >= 1", got)
	}
	if got := svc.m.ShedActive.Load(); got != 1 {
		t.Fatalf("ShedActive = %d, want 1 while shedding", got)
	}

	// Drain; an empty queue disarms the controller and admits again.
	close(release)
	svc.sched.beforeRun = nil
	for _, id := range ids {
		waitJob(t, svc, id)
	}
	if code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1}); code != http.StatusAccepted {
		t.Fatalf("submit after drain: status %d, want 202", code)
	} else {
		waitJob(t, svc, st.ID)
	}
	if got := svc.m.ShedActive.Load(); got != 0 {
		t.Fatalf("ShedActive = %d after drain, want 0", got)
	}
}

// TestOverloadExpiredSweep: a queue full of deadline-expired jobs costs
// the pool one sweep, not one worker run (or retry cycle) per corpse.
func TestOverloadExpiredSweep(t *testing.T) {
	const corpses = 5
	svc, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8, ShedTarget: -1})
	gid := registerGraph(t, ts.URL, 229)
	entered, release, runs := holdFirstWorker(svc)

	_, _, blocker := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1})
	<-entered
	var ids []string
	for i := 0; i < corpses; i++ {
		code, _, st := postJob(t, ts.URL, JobRequest{GraphID: gid, Algo: "pr", Iterations: 1, TimeoutMs: 15})
		if code != http.StatusAccepted {
			t.Fatalf("corpse %d: status %d", i, code)
		}
		ids = append(ids, st.ID)
	}
	// Wait until every queued deadline has lapsed, then free the worker.
	for _, id := range ids {
		j := svc.sched.Get(id)
		select {
		case <-j.ctx.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("deadline of %s never fired", id)
		}
	}
	close(release)

	for _, id := range ids {
		waitJob(t, svc, id)
		st := svc.sched.Get(id).Status()
		if st.State != JobFailed || !strings.Contains(st.Error, "expired while queued") {
			t.Fatalf("job %s: state %q err %q, want queued-expiry failure", id, st.State, st.Error)
		}
		if st.Started != nil {
			t.Fatalf("job %s started despite expiring in queue", id)
		}
	}
	waitJob(t, svc, blocker.ID)
	// Only the blocker crossed the run gate: the corpses were settled at
	// dequeue without occupying the worker.
	if got := runs.Load(); got != 1 {
		t.Fatalf("worker runs = %d, want 1 (expired jobs must not burn runs)", got)
	}
	if got := svc.m.ShedExpired.Load(); got != corpses {
		t.Fatalf("ShedExpired = %d, want %d", got, corpses)
	}
}

// TestOverloadDeadlineAdmission: with a primed run-time estimate, a job
// whose deadline the queue wait would already blow is refused at
// submit instead of admitted to fail later.
func TestOverloadDeadlineAdmission(t *testing.T) {
	m := NewMetrics()
	s := NewScheduler(1, 8, func(*Job) (*JobResult, error) { return &JobResult{}, nil }, m)
	// Enable the admission gate without letting delay shedding trip.
	s.shedTarget = time.Hour
	s.shedInterval = time.Hour
	defer s.Close()

	for i := 0; i < deadlineAdmitMinSamples; i++ {
		s.noteRun(300 * time.Millisecond)
	}
	err := s.SubmitJob(&Job{tenant: "t"}, 100*time.Millisecond)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedDeadline {
		t.Fatalf("tight deadline: err = %v, want ShedError(%s)", err, ShedDeadline)
	}
	if got := m.ShedDeadline.Load(); got != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", got)
	}
	j := &Job{tenant: "t"}
	if err := s.SubmitJob(j, time.Minute); err != nil {
		t.Fatalf("generous deadline refused: %v", err)
	}
	<-j.Done()
}

// TestOverloadChaosTenantFlood is the overload chaos suite: four
// tenants — one hostile, flooding at ~10x the polite rate — hammer a
// small pool while the injector fires faults and latency. Fairness (no
// polite tenant starves) and deadline handling (expired jobs never run)
// must both hold. Run under -race.
func TestOverloadChaosTenantFlood(t *testing.T) {
	inject := fault.New(0xBADCAFE)
	inject.Arm(fault.JobRun, fault.Rule{
		ErrRate:     0.15,
		LatencyRate: 1.0,
		Latency:     2 * time.Millisecond,
	})
	cfg := Config{
		Workers: 2, QueueDepth: 16,
		ShedTarget:   250 * time.Millisecond,
		ShedInterval: 20 * time.Millisecond,
		Faults:       inject,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	svc := New(cfg)
	defer svc.Close()
	e, err := svc.reg.Register(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 31})
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	const floodFor = 1200 * time.Millisecond
	tenants := []string{"hostile", "t1", "t2", "t3"}
	var mu sync.Mutex
	accepted := map[string][]*Job{}
	var rejected atomic.Int64

	submit := func(tenant string, timeoutMs int64) {
		req := JobRequest{GraphID: e.ID, Algo: "pr", Iterations: 1, Tenant: tenant, TimeoutMs: timeoutMs}
		j, err := svc.buildJob(req)
		if err != nil {
			t.Errorf("build job: %v", err)
			return
		}
		timeout := 30 * time.Second
		if timeoutMs > 0 {
			timeout = time.Duration(timeoutMs) * time.Millisecond
		}
		if err := svc.sched.SubmitJob(j, timeout); err != nil {
			j.release()
			var shed *ShedError
			if !errors.Is(err, ErrQueueFull) && !errors.As(err, &shed) {
				t.Errorf("submit: %v", err)
				return
			}
			rejected.Add(1)
			return
		}
		mu.Lock()
		accepted[tenant] = append(accepted[tenant], j)
		mu.Unlock()
	}

	var wg sync.WaitGroup
	stop := time.Now().Add(floodFor)
	for _, tenant := range tenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			hostile := tenant == "hostile"
			for i := 0; time.Now().Before(stop); i++ {
				var timeoutMs int64
				if i%10 == 9 {
					timeoutMs = 5 // a sprinkle of tight deadlines
				}
				submit(tenant, timeoutMs)
				if hostile {
					time.Sleep(500 * time.Microsecond)
				} else {
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(tenant)
	}
	wg.Wait()

	done := map[string]int{}
	var total int
	for tenant, jobs := range accepted {
		total += len(jobs)
		for _, j := range jobs {
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Fatalf("job %s (%s) stuck in state %q", j.ID(), tenant, j.State())
			}
			st := j.Status()
			switch st.State {
			case JobDone:
				done[tenant]++
			case JobFailed, JobCancelled:
				// Deadline correctness: a job swept as expired must never
				// have reached a worker.
				if strings.Contains(st.Error, "expired while queued") && st.Started != nil {
					t.Errorf("job %s expired in queue but has a start time", st.ID)
				}
			default:
				t.Errorf("job %s in non-terminal state %q", st.ID, st.State)
			}
		}
	}
	t.Logf("flood: accepted=%d rejected=%d done=%v shed[delay=%d ddl=%d quota=%d evict=%d exp=%d]",
		total, rejected.Load(), done,
		svc.m.ShedDelay.Load(), svc.m.ShedDeadline.Load(), svc.m.ShedQuota.Load(),
		svc.m.ShedEvicted.Load(), svc.m.ShedExpired.Load())

	// The pool survived and made real progress.
	if got := svc.m.WorkersAlive.Load(); got != 2 {
		t.Errorf("workers alive = %d, want 2", got)
	}
	// Fairness: round-robin dispatch must keep every polite tenant
	// progressing despite the hostile tenant's 10x submission rate. The
	// bounds are deliberately loose (scheduling noise, fault injection)
	// — they catch starvation, not jitter. The floor scales with total
	// completions: under -race the same wall-clock window completes far
	// fewer jobs, but the fair split across 4 tenants must still hold.
	totalDone := 0
	for _, n := range done {
		totalDone += n
	}
	floor := totalDone / 16
	if floor < 2 {
		floor = 2
	}
	hostileDone := done["hostile"]
	for _, tenant := range tenants[1:] {
		if done[tenant] < floor {
			t.Errorf("tenant %s completed only %d of %d jobs (starved; floor %d)", tenant, done[tenant], totalDone, floor)
		}
		if hostileDone > 40 && done[tenant] < hostileDone/20 {
			t.Errorf("tenant %s done=%d vs hostile done=%d: fairness bound breached", tenant, done[tenant], hostileDone)
		}
	}
}
