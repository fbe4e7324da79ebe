// Package service implements cosparsed, the multi-tenant CoSPARSE
// graph-analytics daemon: a graph registry with an LRU-bounded cache of
// prepared engines, a bounded job scheduler with per-job deadlines and
// cancellation, and an HTTP/JSON front end with Prometheus-style
// metrics and structured request logging.
package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"cosparse/internal/repl"
)

// CycleBuckets are the histogram bounds for per-job simulated cycle
// counts (log-spaced: jobs span toy graphs to suite-scale runs).
var CycleBuckets = []float64{1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11}

// SecondsBuckets are the histogram bounds for per-job wall time.
var SecondsBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60}

// HTTPBuckets are the histogram bounds for per-route request latency:
// sub-millisecond for status/metrics probes up to tens of seconds for
// synchronous runs on large graphs.
var HTTPBuckets = []float64{0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// OccupancyBuckets are the histogram bounds for lanes per fused batch
// run (1 = a gather window that caught nothing to fuse).
var OccupancyBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// QueueDelayBuckets are the histogram bounds for dequeue sojourn (how
// long a job waited in the queue): sub-millisecond on an idle daemon
// up to the tens of seconds a standing overload queue produces.
var QueueDelayBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// maxTenantSeries bounds the per-tenant metric cardinality; tenants
// beyond it fold into the "_other" series so a tenant-id flood cannot
// balloon the scrape.
const maxTenantSeries = 64

// Histogram is a fixed-bucket cumulative histogram. Observe is
// lock-free (atomic bucket counters; the float sum is a CAS loop over
// its bit pattern), so concurrent observers never serialize against
// each other or against a scrape in progress.
type Histogram struct {
	bounds  []float64 // immutable after NewHistogram
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
	total   atomic.Int64
}

// NewHistogram builds a histogram over the given ascending bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	return h.total.Load()
}

// write renders the histogram in Prometheus text format under name
// with a pre-formatted label list (`k1="v1",k2="v2"`, or "" for none).
// A scrape racing concurrent Observes sees each counter atomically;
// buckets may trail the total by in-flight observations, which
// Prometheus tolerates between scrapes.
func (h *Histogram) write(w io.Writer, name, labels string) {
	sep, set := "", ""
	if labels != "" {
		sep, set = labels+",", "{"+labels+"}"
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, cum)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// jobHists pairs the two per-algorithm histograms so ObserveJob
// resolves both with a single map lookup under a single (read) lock.
// cycles is nil on a native series: native jobs simulate nothing.
type jobHists struct {
	cycles  *Histogram
	seconds *Histogram
}

// httpHist is one route+status latency series.
type httpHist struct {
	route   string
	status  string
	latency *Histogram
}

// Metrics is the daemon's observability surface: atomic counters and
// gauges plus per-algorithm and per-route histograms, rendered in
// Prometheus text format by WritePrometheus. The zero value is NOT
// ready; use NewMetrics.
type Metrics struct {
	// Job lifecycle counters (monotonic).
	JobsSubmitted atomic.Int64
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	JobsRejected  atomic.Int64 // queue-full 429s

	// Overload shedding, by reason (the cosparsed_jobs_shed_total
	// series). ShedDelay/ShedDeadline/ShedQuota are admission refusals;
	// ShedEvicted counts queued jobs pushed out for fairness;
	// ShedExpired counts jobs whose deadline died in the queue, settled
	// at dequeue without a worker run.
	ShedDelay    atomic.Int64
	ShedDeadline atomic.Int64
	ShedQuota    atomic.Int64
	ShedEvicted  atomic.Int64
	ShedExpired  atomic.Int64
	// ShedActive is 1 while the queue-delay controller is shedding.
	ShedActive atomic.Int64

	// Resilience.
	Panics            atomic.Int64 // recovered panics (workers + HTTP handlers)
	AdmissionRejected atomic.Int64 // graph loads refused by the memory budget (413s)

	// Gauges.
	JobsQueued   atomic.Int64 // jobs waiting in the queue right now
	JobsRunning  atomic.Int64 // jobs executing right now
	WorkersAlive atomic.Int64 // live worker goroutines (drops only on drain/close)
	// Measured resident bytes of registered graphs, by storage format
	// (the cosparsed_graph_bytes{format=...} series).
	GraphBytesCSR   atomic.Int64
	GraphBytesDVCSR atomic.Int64

	// Graph registry.
	GraphsRegistered atomic.Int64 // gauge: graphs currently held

	// Engine cache.
	EngineCacheHits      atomic.Int64
	EngineCacheMisses    atomic.Int64
	EngineCacheEvictions atomic.Int64
	EngineCacheSize      atomic.Int64 // gauge

	// HTTP plane.
	HTTPInFlight atomic.Int64 // gauge: requests currently being served

	// Durability (WAL journal + checkpoints; all zero when the daemon
	// runs without -data-dir).
	JournalBytes       atomic.Int64 // counter: journal bytes committed (frames incl. headers)
	CheckpointsWritten atomic.Int64 // counter: checkpoint snapshots persisted
	CheckpointFailures atomic.Int64 // counter: snapshot writes that failed (job kept running)
	// Jobs re-enqueued by startup recovery, by outcome: resumed from a
	// checkpoint, restarted from scratch, or unrecoverable.
	JobsRecoveredResumed   atomic.Int64
	JobsRecoveredRestarted atomic.Int64
	JobsRecoveredFailed    atomic.Int64

	// Repl is the replication counter block shared with internal/repl
	// (state stays 0 = off when replication is not configured).
	Repl *repl.Stats

	// BatchOccupancy tracks lanes per fused batch run: how many
	// compatible jobs each gather window actually coalesced.
	BatchOccupancy *Histogram

	// QueueDelay tracks dequeue sojourn — the signal behind the
	// CoDel-style shedding controller (cosparsed_queue_delay_seconds).
	QueueDelay *Histogram

	// Histogram families are read-mostly maps: the steady state takes
	// one RLock per observation to resolve the series, then observes
	// lock-free on the atomic histogram. The write lock is only taken
	// to insert a new series (first job of an algorithm, first hit on a
	// route+status pair).
	mu      sync.RWMutex
	jobs    map[string]*jobHists // per-algorithm cycles + wall time
	httpSer map[string]*httpHist // route\x00status → latency series
	tenants map[string]*tenantStats
}

// tenantStats is one tenant's counter block (cosparsed_tenant_*).
type tenantStats struct {
	submitted atomic.Int64
	done      atomic.Int64
	shed      atomic.Int64 // rejected, shed, evicted, or queue-expired
	queued    atomic.Int64 // gauge
}

// NewMetrics returns an initialized Metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		BatchOccupancy: NewHistogram(OccupancyBuckets),
		QueueDelay:     NewHistogram(QueueDelayBuckets),
		jobs:           make(map[string]*jobHists),
		httpSer:        make(map[string]*httpHist),
		tenants:        make(map[string]*tenantStats),
	}
}

// tenant resolves (or creates) a tenant's counter block, folding
// tenants beyond maxTenantSeries into "_other". The empty tenant (jobs
// submitted below the service layer, e.g. direct scheduler tests) gets
// no series.
func (m *Metrics) tenant(name string) *tenantStats {
	if name == "" {
		return nil
	}
	m.mu.RLock()
	ts, ok := m.tenants[name]
	m.mu.RUnlock()
	if ok {
		return ts
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ts, ok = m.tenants[name]; ok {
		return ts
	}
	if len(m.tenants) >= maxTenantSeries {
		name = "_other"
		if ts, ok = m.tenants[name]; ok {
			return ts
		}
	}
	ts = &tenantStats{}
	m.tenants[name] = ts
	return ts
}

// TenantSubmitted counts one accepted job for the tenant.
func (m *Metrics) TenantSubmitted(name string) {
	if ts := m.tenant(name); ts != nil {
		ts.submitted.Add(1)
	}
}

// TenantDone counts one successfully finished job for the tenant.
func (m *Metrics) TenantDone(name string) {
	if ts := m.tenant(name); ts != nil {
		ts.done.Add(1)
	}
}

// TenantShed counts one job the tenant lost to overload control
// (rejected at submit, shed, evicted, or expired in the queue).
func (m *Metrics) TenantShed(name string) {
	if ts := m.tenant(name); ts != nil {
		ts.shed.Add(1)
	}
}

// TenantQueuedAdd moves the tenant's queue-depth gauge.
func (m *Metrics) TenantQueuedAdd(name string, d int64) {
	if ts := m.tenant(name); ts != nil {
		ts.queued.Add(d)
	}
}

// ObserveJob records one finished job's wall-clock duration and, for a
// simulated job, its simulated cycle count, under its algorithm name,
// execution backend and execution mode ("solo" for a dedicated run,
// "fused" for a lane of a coalesced batch). A native job simulates
// nothing, so its cycles are not observed and its series has no
// cycles histogram. One read-lock acquisition resolves both
// histograms; the observations themselves are lock-free.
func (m *Metrics) ObserveJob(algo, backend, mode string, cycles int64, wallSeconds float64) {
	if backend == "" {
		backend = "sim"
	}
	if mode == "" {
		mode = "solo"
	}
	key := algo + "\x00" + backend + "\x00" + mode
	m.mu.RLock()
	jh, ok := m.jobs[key]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		jh, ok = m.jobs[key]
		if !ok {
			jh = &jobHists{seconds: NewHistogram(SecondsBuckets)}
			if backend == "sim" {
				jh.cycles = NewHistogram(CycleBuckets)
			}
			m.jobs[key] = jh
		}
		m.mu.Unlock()
	}
	if jh.cycles != nil {
		jh.cycles.Observe(float64(cycles))
	}
	jh.seconds.Observe(wallSeconds)
}

// ObserveHTTP records one served request's latency under its route
// pattern and status code.
func (m *Metrics) ObserveHTTP(route string, status int, seconds float64) {
	key := route + "\x00" + strconv.Itoa(status)
	m.mu.RLock()
	hh, ok := m.httpSer[key]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		hh, ok = m.httpSer[key]
		if !ok {
			hh = &httpHist{route: route, status: strconv.Itoa(status), latency: NewHistogram(HTTPBuckets)}
			m.httpSer[key] = hh
		}
		m.mu.Unlock()
	}
	hh.latency.Observe(seconds)
}

// ObserveBatch records one fused batch run's lane count.
func (m *Metrics) ObserveBatch(lanes int) {
	m.BatchOccupancy.Observe(float64(lanes))
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, in deterministic order. The histogram maps are snapshotted
// under one lock acquisition; rendering then reads only atomics.
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("cosparsed_jobs_submitted_total", "Jobs accepted into the queue.", m.JobsSubmitted.Load())
	counter("cosparsed_jobs_done_total", "Jobs finished successfully.", m.JobsDone.Load())
	counter("cosparsed_jobs_failed_total", "Jobs finished with an error (including deadline-exceeded).", m.JobsFailed.Load())
	counter("cosparsed_jobs_cancelled_total", "Jobs cancelled by the client.", m.JobsCancelled.Load())
	counter("cosparsed_jobs_rejected_total", "Job submissions rejected because the queue was full.", m.JobsRejected.Load())
	fmt.Fprintf(w, "# HELP cosparsed_jobs_shed_total Jobs refused or abandoned by overload control, by reason.\n# TYPE cosparsed_jobs_shed_total counter\n")
	fmt.Fprintf(w, "cosparsed_jobs_shed_total{reason=%q} %d\n", ShedQueueDelay, m.ShedDelay.Load())
	fmt.Fprintf(w, "cosparsed_jobs_shed_total{reason=%q} %d\n", ShedDeadline, m.ShedDeadline.Load())
	fmt.Fprintf(w, "cosparsed_jobs_shed_total{reason=%q} %d\n", ShedTenantQuota, m.ShedQuota.Load())
	fmt.Fprintf(w, "cosparsed_jobs_shed_total{reason=%q} %d\n", ShedFairnessEvict, m.ShedEvicted.Load())
	fmt.Fprintf(w, "cosparsed_jobs_shed_total{reason=%q} %d\n", ShedExpired, m.ShedExpired.Load())
	gauge("cosparsed_shedding", "1 while the queue-delay controller is shedding new submissions.", m.ShedActive.Load())
	counter("cosparsed_panics_total", "Panics recovered in workers and HTTP handlers.", m.Panics.Load())
	counter("cosparsed_admission_rejected_total", "Graph registrations refused by the memory budget.", m.AdmissionRejected.Load())
	gauge("cosparsed_queue_depth", "Jobs waiting in the queue.", m.JobsQueued.Load())
	gauge("cosparsed_jobs_running", "Jobs currently executing.", m.JobsRunning.Load())
	gauge("cosparsed_workers", "Live worker goroutines.", m.WorkersAlive.Load())
	fmt.Fprintf(w, "# HELP cosparsed_graph_bytes Measured resident bytes of registered graphs, by storage format.\n# TYPE cosparsed_graph_bytes gauge\n")
	fmt.Fprintf(w, "cosparsed_graph_bytes{format=\"csr\"} %d\n", m.GraphBytesCSR.Load())
	fmt.Fprintf(w, "cosparsed_graph_bytes{format=\"dvcsr\"} %d\n", m.GraphBytesDVCSR.Load())
	gauge("cosparsed_graphs_registered", "Graphs currently held in the registry.", m.GraphsRegistered.Load())
	counter("cosparsed_engine_cache_hits_total", "Prepared-engine cache hits.", m.EngineCacheHits.Load())
	counter("cosparsed_engine_cache_misses_total", "Prepared-engine cache misses (engine built).", m.EngineCacheMisses.Load())
	counter("cosparsed_engine_cache_evictions_total", "Prepared engines evicted from the LRU cache.", m.EngineCacheEvictions.Load())
	gauge("cosparsed_engine_cache_size", "Prepared engines currently cached.", m.EngineCacheSize.Load())
	gauge("cosparsed_http_in_flight", "HTTP requests currently being served.", m.HTTPInFlight.Load())
	counter("cosparsed_journal_bytes_total", "Bytes committed to the durability journal (framed records, fsynced).", m.JournalBytes.Load())
	counter("cosparsed_checkpoints_written_total", "Checkpoint snapshots persisted for running jobs.", m.CheckpointsWritten.Load())
	counter("cosparsed_checkpoint_failures_total", "Checkpoint snapshot writes that failed (the job kept running).", m.CheckpointFailures.Load())
	fmt.Fprintf(w, "# HELP cosparsed_jobs_recovered_total Jobs re-enqueued by startup recovery, by outcome.\n# TYPE cosparsed_jobs_recovered_total counter\n")
	fmt.Fprintf(w, "cosparsed_jobs_recovered_total{outcome=\"resumed\"} %d\n", m.JobsRecoveredResumed.Load())
	fmt.Fprintf(w, "cosparsed_jobs_recovered_total{outcome=\"restarted\"} %d\n", m.JobsRecoveredRestarted.Load())
	fmt.Fprintf(w, "cosparsed_jobs_recovered_total{outcome=\"failed\"} %d\n", m.JobsRecoveredFailed.Load())
	if m.Repl != nil {
		gauge("cosparsed_repl_state", "Replication state (0=off 1=idle 2=syncing 3=streaming 4=disconnected 5=rejected).", m.Repl.State.Load())
		gauge("cosparsed_repl_lag_records", "Journal records the replication peer has not acknowledged.", m.Repl.LagRecords.Load())
		counter("cosparsed_repl_resyncs_total", "Full segment resyncs started.", m.Repl.Resyncs.Load())
		counter("cosparsed_repl_semisync_fallbacks_total", "Semisync submits acked without a follower ack (the wait timed out, or no follower had polled within the timeout).", m.Repl.SemisyncFallbacks.Load())
		counter("cosparsed_repl_sent_records_total", "Journal records served to the follower (tail polls plus resync reads).", m.Repl.SentRecords.Load())
		counter("cosparsed_repl_applied_records_total", "Replicated journal records applied locally (follower side).", m.Repl.AppliedRecords.Load())
	}

	// One lock acquisition snapshots every histogram family; the
	// histograms themselves are rendered from atomics afterwards.
	m.mu.RLock()
	jobKeys := make([]string, 0, len(m.jobs))
	jobs := make(map[string]*jobHists, len(m.jobs))
	for k, jh := range m.jobs {
		jobKeys = append(jobKeys, k)
		jobs[k] = jh
	}
	httpKeys := make([]string, 0, len(m.httpSer))
	httpSer := make(map[string]*httpHist, len(m.httpSer))
	for k, hh := range m.httpSer {
		httpKeys = append(httpKeys, k)
		httpSer[k] = hh
	}
	tenantKeys := make([]string, 0, len(m.tenants))
	tenants := make(map[string]*tenantStats, len(m.tenants))
	for k, ts := range m.tenants {
		tenantKeys = append(tenantKeys, k)
		tenants[k] = ts
	}
	m.mu.RUnlock()
	sort.Strings(jobKeys)
	sort.Strings(httpKeys)
	sort.Strings(tenantKeys)

	if len(tenantKeys) > 0 {
		fmt.Fprintf(w, "# HELP cosparsed_tenant_jobs_submitted_total Jobs accepted, by tenant.\n# TYPE cosparsed_tenant_jobs_submitted_total counter\n")
		for _, k := range tenantKeys {
			fmt.Fprintf(w, "cosparsed_tenant_jobs_submitted_total{tenant=%q} %d\n", k, tenants[k].submitted.Load())
		}
		fmt.Fprintf(w, "# HELP cosparsed_tenant_jobs_done_total Jobs finished successfully, by tenant.\n# TYPE cosparsed_tenant_jobs_done_total counter\n")
		for _, k := range tenantKeys {
			fmt.Fprintf(w, "cosparsed_tenant_jobs_done_total{tenant=%q} %d\n", k, tenants[k].done.Load())
		}
		fmt.Fprintf(w, "# HELP cosparsed_tenant_jobs_shed_total Jobs lost to overload control (rejected, shed, evicted, expired), by tenant.\n# TYPE cosparsed_tenant_jobs_shed_total counter\n")
		for _, k := range tenantKeys {
			fmt.Fprintf(w, "cosparsed_tenant_jobs_shed_total{tenant=%q} %d\n", k, tenants[k].shed.Load())
		}
		fmt.Fprintf(w, "# HELP cosparsed_tenant_queue_depth Jobs waiting in the queue, by tenant.\n# TYPE cosparsed_tenant_queue_depth gauge\n")
		for _, k := range tenantKeys {
			fmt.Fprintf(w, "cosparsed_tenant_queue_depth{tenant=%q} %d\n", k, tenants[k].queued.Load())
		}
	}

	// Job-series map keys are algo\x00backend\x00mode; render all three
	// as labels.
	jobLabels := func(key string) string {
		algo, rest, _ := strings.Cut(key, "\x00")
		backend, mode, _ := strings.Cut(rest, "\x00")
		return fmt.Sprintf("algo=%q,backend=%q,mode=%q", algo, backend, mode)
	}
	cyclesHead := "# HELP cosparsed_job_cycles Simulated cycles per finished simulated job.\n# TYPE cosparsed_job_cycles histogram\n"
	for _, k := range jobKeys {
		if jobs[k].cycles != nil { // native series have none
			fmt.Fprint(w, cyclesHead)
			cyclesHead = ""
			jobs[k].cycles.write(w, "cosparsed_job_cycles", jobLabels(k))
		}
	}
	if len(jobKeys) > 0 {
		fmt.Fprintf(w, "# HELP cosparsed_job_seconds Wall-clock seconds per finished job.\n# TYPE cosparsed_job_seconds histogram\n")
		for _, k := range jobKeys {
			jobs[k].seconds.write(w, "cosparsed_job_seconds", jobLabels(k))
		}
	}
	if m.QueueDelay != nil && m.QueueDelay.Count() > 0 {
		fmt.Fprintf(w, "# HELP cosparsed_queue_delay_seconds Dequeue sojourn: how long each job waited in the queue.\n# TYPE cosparsed_queue_delay_seconds histogram\n")
		m.QueueDelay.write(w, "cosparsed_queue_delay_seconds", "")
	}
	if m.BatchOccupancy != nil && m.BatchOccupancy.Count() > 0 {
		fmt.Fprintf(w, "# HELP cosparsed_batch_occupancy Lanes per fused batch run (jobs coalesced by one gather window).\n# TYPE cosparsed_batch_occupancy histogram\n")
		m.BatchOccupancy.write(w, "cosparsed_batch_occupancy", "")
	}
	if len(httpKeys) > 0 {
		fmt.Fprintf(w, "# HELP cosparsed_http_request_seconds HTTP request latency by route pattern and status code.\n# TYPE cosparsed_http_request_seconds histogram\n")
		for _, k := range httpKeys {
			hh := httpSer[k]
			hh.latency.write(w, "cosparsed_http_request_seconds",
				fmt.Sprintf("route=%q,code=%q", hh.route, hh.status))
		}
	}
}
