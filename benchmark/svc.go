package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosparse"
	"cosparse/internal/service"
)

// svcSpec describes a workload against an in-process service reached
// over a loopback listener.
type svcSpec struct {
	vertices, edges int
	algo            string // "bfs" or "ppr"
	iterations      int
	sources         int // size of the seeded source ring
	// Exactly one of clients (closed loop: that many callers, one
	// keep-alive connection each) and ratePerS (open loop: one submitter
	// on the schedule plus one poller) is set.
	clients  int
	ratePerS float64
	// burst is how many open-loop jobs share each due time. A fused run
	// gathers only jobs that reach the service within one batch window,
	// and evenly spaced arrivals never do: see README.md.
	burst       int
	workers     int           // service worker pool
	batchWindow time.Duration // 0 = batching off
	batchLanes  int
	timeoutMs   int64
}

// svcAnswer is what the library says a job must return.
type svcAnswer struct {
	reached int
	top     int32
	iters   int
}

// svcInst is one open service with its graph registered.
type svcInst struct {
	svc        *service.Service
	srv        *http.Server
	served     chan struct{}
	base       string
	graphID    string
	resident   int64
	registerMs float64
}

func (in *svcInst) close() {
	in.srv.Close()
	<-in.served
	in.svc.Close()
}

// conn is one keep-alive connection to the service.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	return &conn{base: base, c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   30 * time.Second,
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// do makes one request and returns its status and round-trip time. A
// JSON body is sent when in is non-nil; the reply is decoded into out
// when out is non-nil and the status is 2xx.
func (c *conn) do(method, path string, in, out any) (int, time.Duration, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rtt := time.Since(t0)
	if err != nil {
		return resp.StatusCode, rtt, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
		} else if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, rtt, err
		}
	}
	return resp.StatusCode, rtt, nil
}

// openService starts a service on dir, serves it on loopback,
// registers the workload's graph and runs one job, so the engine is
// built before anything is measured.
func openService(dir string, s svcSpec, n, edges int, seed uint64) (*svcInst, error) {
	svc, err := service.Open(service.Config{
		Workers:        s.workers,
		QueueDepth:     64,
		DefaultBackend: "native",
		DataDir:        dir,
		BatchWindow:    s.batchWindow,
		BatchMaxLanes:  s.batchLanes,
		// No follower ever registers; the cadence only sets how long
		// Close waits for the heartbeat goroutine's next tick, and a
		// run opens and closes the service several times.
		ReplHeartbeatEvery: 20 * time.Millisecond,
		Logger:             slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	in := &svcInst{
		svc: svc, srv: &http.Server{Handler: svc.Handler()},
		served: make(chan struct{}), base: "http://" + ln.Addr().String(),
	}
	go func() {
		defer close(in.served)
		in.srv.Serve(ln) // returns when close() closes the server
	}()
	c := newConn(in.base)
	defer c.close()
	var info service.GraphInfo
	status, rtt, err := c.do("POST", "/v1/graphs", service.GraphSpec{Kind: "powerlaw", Vertices: n, Edges: edges, Seed: seed}, &info)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("register graph: status %d", status)
	}
	if err == nil {
		in.registerMs, in.graphID = ms(rtt), info.ID
		status, _, err = c.do("GET", "/v1/graphs/"+info.ID, nil, &info)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("get graph: status %d", status)
		}
		in.resident = info.ResidentBytes
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// expectedAnswers computes, with the library, what the service must
// answer for every source of the ring.
func (s svcSpec) expectedAnswers(n, edges int, seed uint64) (src []int32, want map[int32]svcAnswer, g *cosparse.Graph, genMs float64, err error) {
	t0 := time.Now()
	if g, err = cosparse.GeneratePowerLaw(n, edges, cosparse.Unweighted, seed); err != nil {
		return
	}
	genMs = ms(time.Since(t0))
	eng, err := cosparse.New(g, sys, cosparse.WithBackend(cosparse.NativeBackend))
	if err != nil {
		return
	}
	src = topDegreeSources(g, seed, s.sources)
	want = make(map[int32]svcAnswer, len(src))
	switch s.algo {
	case "bfs":
		for _, v := range src {
			r, rep, err := eng.BFS(v)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			a := svcAnswer{iters: rep.TotalIterations}
			for _, l := range r.Level {
				if l >= 0 {
					a.reached++
				}
			}
			want[v] = a
		}
	case "ppr":
		ctxs := make([]context.Context, len(src))
		for i := range ctxs {
			ctxs[i] = context.Background()
		}
		outs, reps, errs := eng.PersonalizedPageRankBatch(ctxs, src, s.iterations, 0.15)
		for i, v := range src {
			if errs[i] != nil {
				return nil, nil, nil, 0, errs[i]
			}
			a := svcAnswer{iters: reps[i].TotalIterations}
			best := float32(0)
			for vtx, score := range outs[i] {
				if score > best {
					a.top, best = int32(vtx), score
				}
			}
			want[v] = a
		}
	default:
		err = fmt.Errorf("no reference for algorithm %q", s.algo)
	}
	return
}

// svcJob is one job as the client and the server saw it.
type svcJob struct {
	idx        int
	src        int32
	traced     bool
	due, sent  time.Time
	submitMs   float64
	accepted   bool
	status     service.JobStatus
	seenDone   time.Time
	iterations []cosparse.IterationStat // traced jobs only
	problem    string                   // why the job counts as failed, "" if it does not
}

// svcRun drives one service instance and collects what happened.
type svcRun struct {
	e       *env
	s       svcSpec
	in      *svcInst
	sources []int32
	want    map[int32]svcAnswer
	tr      *tracer // nil = no job records spans

	mu      sync.Mutex
	jobs    []*svcJob
	getUs   []float64
	rssMark float64 // peak RSS when the rssMarkJobs-th job ended, 0 before
}

// rssMarkJobs is the job of a service window at whose end the peak RSS
// is read. The service keeps every finished job (about 9 KB each), so
// at the end of a closed-loop window the peak says how many jobs the
// host got through in it — 6000 to 9500 on svc-tiny-durable, 25 to
// 110 MB — and a faster service would read as a memory regression. At a
// fixed job count it says what the service holds for that much work.
// Every ten-second window seen on the build host passed 3400 jobs.
const rssMarkJobs = 3000

func (r *svcRun) record(j *svcJob) {
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	if len(r.jobs) == rssMarkJobs {
		r.rssMark = rssPeakMB()
	}
	r.mu.Unlock()
}

// submit posts job idx, which was due at due: the schedule's time in an
// open loop, the moment the caller was free to send in a closed one.
// sent is taken just before the request leaves.
func (r *svcRun) submit(c *conn, idx int, due time.Time) *svcJob {
	j := &svcJob{idx: idx, src: r.sources[idx%len(r.sources)], traced: r.tr != nil && idx%2 == 0, due: due}
	req := service.JobRequest{GraphID: r.in.graphID, Algo: r.s.algo, Source: j.src, Iterations: r.s.iterations, TimeoutMs: r.s.timeoutMs}
	j.sent = time.Now()
	status, rtt, err := c.do("POST", "/v1/jobs", req, &j.status)
	j.submitMs = ms(rtt)
	switch {
	case err != nil:
		j.problem = "submit: " + err.Error()
	case status != http.StatusAccepted:
		j.problem = fmt.Sprintf("submit refused with status %d", status)
	default:
		j.accepted = true
	}
	return j
}

func terminal(s service.JobState) bool {
	return s == service.JobDone || s == service.JobFailed || s == service.JobCancelled
}

// poll asks for the job once and reports whether it is finished.
func (r *svcRun) poll(c *conn, j *svcJob) bool {
	status, rtt, err := c.do("GET", "/v1/jobs/"+j.status.ID, nil, &j.status)
	if err != nil || status != http.StatusOK {
		j.problem = fmt.Sprintf("poll: status %d err %v", status, err)
		return true
	}
	r.mu.Lock()
	r.getUs = append(r.getUs, float64(rtt.Nanoseconds())/1e3)
	r.mu.Unlock()
	if !terminal(j.status.State) {
		return false
	}
	j.seenDone = time.Now()
	if j.traced {
		var tr service.JobTrace
		if status, _, err := c.do("GET", "/v1/jobs/"+j.status.ID+"/trace", nil, &tr); err == nil && status == http.StatusOK {
			j.iterations = tr.Iterations
		}
	}
	return true
}

// verify decides whether a finished job counts, and why not.
func (r *svcRun) verify(j *svcJob) {
	if j.problem != "" {
		return
	}
	st := j.status
	switch {
	case st.State != service.JobDone || st.Result == nil || st.Finished == nil || st.Started == nil:
		j.problem = fmt.Sprintf("ended %s: %s", st.State, st.Error)
	case ms(st.Finished.Sub(j.due)) > float64(r.s.timeoutMs):
		j.problem = "missed its deadline"
	default:
		want, got := r.want[j.src], st.Result
		if got.Iterations != want.iters || got.Reached != want.reached || got.TopVertex != want.top {
			j.problem = fmt.Sprintf("wrong answer for source %d: got reached=%d top=%d iters=%d, library says reached=%d top=%d iters=%d",
				j.src, got.Reached, got.TopVertex, got.Iterations, want.reached, want.top, want.iters)
		}
	}
}

// closedPollEvery paces a closed-loop caller's polling: short against
// the millisecond-scale jobs it waits for, long enough not to keep a
// core busy asking.
const closedPollEvery = 200 * time.Microsecond

// closedLoop runs the spec's callers until d has passed; each sends its
// next job once it has seen the previous one finish. It returns the
// time until the last caller stopped.
func (r *svcRun) closedLoop(d time.Duration) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < r.s.clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newConn(r.in.base)
			defer c.close()
			for time.Since(start) < d {
				j := r.submit(c, int(next.Add(1)-1), time.Now())
				for j.accepted && !r.poll(c, j) {
					time.Sleep(closedPollEvery)
				}
				r.verify(j)
				r.record(j)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// openPollEvery is the pause between the poller's sweeps over the
// outstanding jobs of an open-loop run.
const openPollEvery = time.Millisecond

// openLoop submits on a fixed schedule for d from one connection while
// a second connection polls every outstanding job; after the schedule
// ends the poller drains what is still running. Jobs are timed from
// their due time, so a stalled submitter shows as latency, and the
// stall itself is recorded as lateness.
func (r *svcRun) openLoop(d time.Duration) time.Duration {
	pending := make(chan *svcJob, 4096) // never blocks the submitter: far more than d*rate
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := newConn(r.in.base)
		defer c.close()
		var open []*svcJob
		closed := false
		// The server ends a job at its timeout; past this the job is lost.
		overdue := time.Duration(r.s.timeoutMs)*time.Millisecond + 5*time.Second
		for !closed || len(open) > 0 {
			for more := true; more && !closed; {
				select {
				case j, ok := <-pending:
					if !ok {
						closed = true
					} else {
						open = append(open, j)
					}
				default:
					more = false
				}
			}
			kept := open[:0]
			for _, j := range open {
				if time.Since(j.due) > overdue && j.problem == "" {
					j.problem = "never finished"
				}
				if !j.accepted || j.problem != "" || r.poll(c, j) {
					r.verify(j)
					r.record(j)
				} else {
					kept = append(kept, j)
				}
			}
			open = kept
			time.Sleep(openPollEvery)
		}
	}()
	c := newConn(r.in.base)
	defer c.close()
	start := time.Now()
	period := time.Duration(float64(r.s.burst) * float64(time.Second) / r.s.ratePerS)
	runSchedule(wallClock{}, start, period, r.s.burst, start.Add(d), func(i int, due, _ time.Time) {
		pending <- r.submit(c, i, due)
	})
	close(pending)
	wg.Wait()
	return time.Since(start)
}

// scrape reads the service's counters, summed over labels.
func scrape(c *conn) (map[string]float64, error) {
	var raw []byte
	if status, _, err := c.do("GET", "/metrics", nil, &raw); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d err %v", status, err)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		out[name] += v
	}
	return out, nil
}

// svcWindow is one measured stretch of a service run.
type svcWindow struct {
	slowdown float64 // hostSpeed.slowdown over the stretch
	jobs     []*svcJob
	getUs    []float64
	elapsed  time.Duration
	counters map[string]float64 // /metrics deltas over the stretch
}

// measure runs the loop for d and returns what happened in it.
func (r *svcRun) measure(d time.Duration) (*svcWindow, error) {
	c := newConn(r.in.base)
	defer c.close()
	before, err := scrape(c)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.jobs, r.getUs = nil, nil
	r.mu.Unlock()
	mark, stop, sampled := r.e.speed.mark(), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		r.e.speed.sampleUntil(stop)
	}()
	var elapsed time.Duration
	if r.s.ratePerS > 0 {
		elapsed = r.openLoop(d)
	} else {
		elapsed = r.closedLoop(d)
	}
	close(stop)
	<-sampled
	slowdown, _ := r.e.speed.slowdown(mark)
	after, err := scrape(c)
	if err != nil {
		return nil, err
	}
	for k, v := range before {
		after[k] -= v
	}
	return &svcWindow{slowdown: slowdown, jobs: r.jobs, getUs: r.getUs, elapsed: elapsed, counters: after}, nil
}

// spans records a traced job: the job from its due time to the
// server's Finished stamp, with the submit round trip, the queue
// sojourn and the run as children, and the engine's phase walls under
// the run.
func (r *svcRun) spans(j *svcJob) {
	if !j.traced || j.problem != "" {
		return
	}
	st := j.status
	job := r.tr.add(0, j.idx, "job", j.due, *st.Finished)
	if j.sent.After(j.due) {
		r.tr.add(job, j.idx, "harness.late", j.due, j.sent)
	}
	r.tr.add(job, j.idx, "http.submit", j.sent, j.sent.Add(time.Duration(j.submitMs*1e6)))
	r.tr.add(job, j.idx, "service.queue", st.Created, *st.Started)
	run := r.tr.add(job, j.idx, "service.run", *st.Started, *st.Finished)
	wall := time.Duration(st.Result.WallMs * 1e6)
	eng := r.tr.add(run, j.idx, "engine", st.Finished.Add(-wall), *st.Finished)
	phaseSpans(r.tr, eng, j.idx, st.Finished.Add(-wall), j.iterations)
}

// emitServiceLayers writes the rows that describe the service, batch
// and load-generator layers from one measured stretch.
func emitServiceLayers(e *env, w *svcWindow, registerMs float64) {
	var submit, queue, run, engine, wait, gap, late, lanes []float64
	fused := 0
	for _, j := range w.jobs {
		if j.accepted {
			submit = append(submit, j.submitMs)
		}
		late = append(late, ms(j.sent.Sub(j.due)))
		if j.problem != "" {
			continue
		}
		st := j.status
		q, ru := ms(st.Started.Sub(st.Created)), ms(st.Finished.Sub(*st.Started))
		queue, run = append(queue, q), append(run, ru)
		engine = append(engine, st.Result.WallMs)
		wait = append(wait, ru-st.Result.WallMs)
		gap = append(gap, ms(j.seenDone.Sub(*st.Finished)))
		if st.Fused {
			fused++
		}
		lanes = append(lanes, float64(max(st.BatchLanes, 1)))
	}
	n := len(queue)
	e.set("submit_ms_p50", median(submit), len(submit))
	e.set("service.queue_ms_p50", median(queue), n)
	e.set("service.run_ms_p50", median(run), n)
	e.set("service.engine_wall_ms_p50", median(engine), n)
	e.set("service.run_wait_ms_p50", median(wait), n)
	e.set("service.poll_gap_ms_p50", median(gap), n)
	e.set("service.get_job_us_p50", median(w.getUs), len(w.getUs))
	e.set("service.register_graph_ms", registerMs, 1)
	hits, misses := w.counters["cosparsed_engine_cache_hits_total"], w.counters["cosparsed_engine_cache_misses_total"]
	e.set("service.engine_cache_hit_rate", hits/max(hits+misses, 1), int(hits+misses))
	e.set("service.journal_bytes_per_job", w.counters["cosparsed_journal_bytes_total"]/float64(max(len(w.jobs), 1)), len(w.jobs))
	e.set("service.shed_total", w.counters["cosparsed_jobs_shed_total"], len(w.jobs))
	e.set("batch.fused_share", float64(fused)/float64(max(n, 1)), n)
	e.set("batch.lanes_mean", mean(lanes), n)
	e.set("harness.late_ms_p95", percentile(late, 95), len(late))
}

// runService is the run both svc-* workloads share.
func runService(e *env, s svcSpec) error {
	orc, orcHostNs, err := runOracle(e)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	n, edges := e.size(s.vertices, s.edges)
	sources, want, g, genMs, err := s.expectedAnswers(n, edges, e.cfg.Seed)
	if err != nil {
		return fmt.Errorf("reference answers: %w", err)
	}

	r := &svcRun{e: e, s: s, sources: sources, want: want}
	rep := 0
	setups, err := e.repeatSetup(func() {
		if r.in != nil {
			r.in.close()
			r.in = nil
			runtime.GC() // a closed service is garbage, not working set
		}
	}, func() (err error) {
		dir := filepath.Join(e.dataDir, fmt.Sprintf("svc%d", rep))
		rep++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if r.in, err = openService(dir, s, n, edges, e.cfg.Seed); err != nil {
			return err
		}
		// The first job builds the engine: set-up, not steady state.
		c := newConn(r.in.base)
		defer c.close()
		j := r.submit(c, 0, time.Now())
		for j.accepted && !r.poll(c, j) {
			time.Sleep(closedPollEvery)
		}
		if r.verify(j); j.problem != "" {
			return fmt.Errorf("first job: %s", j.problem)
		}
		return nil
	})
	if r.in != nil {
		defer r.in.close()
	}
	if err != nil {
		return err
	}
	e.set("setup_s", median(setups), len(setups))
	e.set("gen.build_ms", genMs, 1)
	e.set("graph_resident_mb", float64(r.in.resident)/1e6, 1)
	orc.emit(e, 1, orcHostNs)

	// Warm-up: at least ten jobs or the warm-up time, whichever is first.
	warm := s
	warm.clients, warm.ratePerS = 2, 0
	wr := &svcRun{e: e, s: warm, in: r.in, sources: sources, want: want}
	for t0 := time.Now(); len(wr.jobs) < 10 && time.Since(t0) < e.warmup(); {
		wr.closedLoop(50 * time.Millisecond)
	}

	r.tr = e.tr
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w, err := r.measure(e.window())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)

	var lat latencies
	var phases phaseAgg
	for _, j := range w.jobs {
		e.res.Attempted++
		if j.problem != "" {
			e.res.Failed++
			e.note("job %d: %s", j.idx, j.problem)
			continue
		}
		lat.add(j.src, ms(j.status.Finished.Sub(j.due)), j.traced)
		r.spans(j)
		if j.traced {
			// A fused lane reports the whole batch's wall but its own
			// share of the phases.
			phases.addJob(j.src, j.status.Result.WallMs/float64(max(j.status.BatchLanes, 1)), j.iterations)
		}
	}
	good := e.res.Attempted - e.res.Failed
	if good == 0 {
		return fmt.Errorf("no job succeeded in the window")
	}
	lat.emit(e, good, w.elapsed.Seconds(), w.slowdown)
	if r.rssMark > 0 {
		e.set("rss_peak_mb", r.rssMark, 1)
	}
	e.set("runtime.alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(e.res.Attempted), e.res.Attempted)
	emitServiceLayers(e, w, r.in.registerMs)
	if !e.cfg.Traced {
		return nil
	}
	phases.emitCounts(e)
	phases.emitWalls(e)

	switch e.cfg.Workload {
	case "svc-tiny-durable":
		share := e.res.Metrics["service.engine_wall_ms_p50"] / median(lat.all)
		e.check("svc-tiny-durable.engine_wall_share_of_p50", share, share < 0.40, "< 0.40")
	case "svc-ppr-open":
		f, l := e.res.Metrics["batch.fused_share"], e.res.Metrics["harness.late_ms_p95"]
		e.check("svc-ppr-open.fused_share", f, f >= 0.5, ">= 0.5")
		e.check("svc-ppr-open.late_ms_p95", l, l < 5, "< 5")
	}
	return layerProbes(e, g, s.vertices, s.edges)
}

// probeSpec is the short open-loop PPR run the lib-* workloads use to
// fill the service, batch and load-generator rows: jobs of about a
// millisecond on a 2048-vertex graph, at a rate two cores hold easily.
var probeSpec = svcSpec{
	vertices: 2048, edges: 16384, algo: "ppr", iterations: 10, sources: 16,
	batchWindow: 5 * time.Millisecond, batchLanes: 32, workers: 2,
	ratePerS: 100, burst: 2, timeoutMs: 2000,
}

// serviceProbe measures the service layers for a workload that does
// not use the service, so that every traced run has every row. The
// numbers characterise the host, not the workload: a change to the
// library should leave them where they were.
func serviceProbe(e *env) error {
	s := probeSpec
	n, edges := e.size(s.vertices, s.edges)
	seed := e.cfg.Seed ^ 0x70726f6265 // "probe"
	sources, want, _, _, err := s.expectedAnswers(n, edges, seed)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	dir := filepath.Join(e.dataDir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	span := e.tr.begin(0, -1, "probe.service")
	defer e.tr.end(span)
	in, err := openService(dir, s, n, edges, seed)
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	defer in.close()
	r := &svcRun{e: e, s: s, in: in, sources: sources, want: want}
	w, err := r.measure(time.Duration(min(1, 0.1*e.cfg.Seconds+0.2) * float64(time.Second)))
	if err != nil {
		return fmt.Errorf("service probe: %w", err)
	}
	for _, j := range w.jobs {
		if j.problem != "" {
			e.fail("service probe job %d: %s", j.idx, j.problem)
		}
	}
	emitServiceLayers(e, w, in.registerMs)
	return nil
}
