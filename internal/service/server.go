package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosparse"
	"cosparse/internal/batch"
	"cosparse/internal/fault"
	"cosparse/internal/kernels"
	"cosparse/internal/repl"
	"cosparse/internal/store"
)

// Config tunes a Service. Zero fields take the documented defaults.
type Config struct {
	// Workers is the job worker-pool size (default 2).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run; submissions
	// beyond it get 429 (default 16).
	QueueDepth int
	// EngineCacheSize bounds the LRU cache of prepared engines
	// (default 8).
	EngineCacheSize int
	// MaxGraphs bounds the registry (default 64).
	MaxGraphs int
	// MaxVertices/MaxEdges cap any single registered graph.
	MaxVertices int
	MaxEdges    int
	// DefaultSystem is the geometry used when a job names none
	// (default 16×16). MaxTiles/MaxPEs cap per-job overrides.
	DefaultSystem cosparse.System
	// DefaultBackend is the execution backend used when a job names
	// none: "sim" (the default) or "native".
	DefaultBackend string
	// DefaultFormat is the graph storage format used when a register
	// request names none: "auto" (the default), "csr" or "dvcsr".
	DefaultFormat string
	// DefaultTimeout / MaxTimeout bound per-job deadlines
	// (defaults 30s / 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes caps request bodies via http.MaxBytesReader;
	// overflow returns 413 (default 64 MiB).
	MaxBodyBytes int64
	// MemoryBudgetBytes caps the estimated resident footprint of all
	// registered graphs (EstimateGraphBytes); loads beyond it get 413.
	// 0 disables admission control.
	MemoryBudgetBytes int64
	// Retry governs automatic re-runs of transiently failing jobs.
	Retry RetryPolicy
	// Faults is the fault injector (nil = disarmed; see internal/fault).
	Faults *fault.Injector
	// Logger receives structured request and job logs (default: slog
	// text to stderr via slog.Default).
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: the profile endpoints are unauthenticated and can stall
	// the process for the duration of a profile).
	EnablePprof bool
	// SlowJob is the wall-clock threshold above which a finished job
	// logs its full per-iteration decision trace (0 disables).
	SlowJob time.Duration
	// TraceCap bounds each job's retained iteration trace (see
	// cosparse.WithTraceCap): 0 = library default, negative = unbounded.
	TraceCap int
	// TraceSink, when non-nil, receives one JSON line per finished job
	// (including partial runs) with the job's iteration trace — the
	// daemon-side form of the CLI's -trace flag. Writes are serialized.
	TraceSink io.Writer
	// DataDir, when non-empty, enables durability: a WAL journal of
	// graph and job lifecycle transitions plus periodic checkpoint
	// snapshots of running jobs, replayed on startup by Open. Empty
	// (the default) keeps the service fully in-memory; New ignores
	// this field.
	DataDir string
	// CheckpointEvery is the iteration interval between checkpoint
	// snapshots of running jobs when DataDir is set (default 16;
	// negative disables snapshotting while keeping the journal).
	CheckpointEvery int
	// StoreNoSync skips fsync in the durability store (tests only; it
	// voids the crash-consistency contract).
	StoreNoSync bool
	// BatchWindow enables multi-source job fusion: compatible jobs
	// (same graph, algorithm, backend, geometry and parameters — only
	// the source vertex may differ) submitted within this window
	// coalesce into one fused multi-vector run. 0 (the default)
	// disables fusion; every job runs solo. The daemon enables it by
	// default (-batch-window).
	BatchWindow time.Duration
	// BatchMaxLanes caps how many jobs one fused run carries. 0 or a
	// value above kernels.LaneBlock takes LaneBlock (8): one lane block
	// per matrix traversal, where fusion's measured gain is.
	BatchMaxLanes int
	// FollowLeader, when non-empty, starts this instance as a hot
	// standby of the leader at the given base URL: mutating endpoints
	// answer 503, the leader's journal and checkpoint stream is
	// applied into this node's store, and promotion (POST
	// /v1/admin/promote, or PromoteAfter without a heartbeat) runs
	// recovery and takes over as leader. Requires DataDir.
	FollowLeader string
	// AdvertiseURL is the base URL this node is reachable at, sent to
	// the leader at registration (follower mode). Required with
	// FollowLeader.
	AdvertiseURL string
	// ReplMode selects the leader's submit-ack coupling: "async" (the
	// default) or "semisync" (submit acks wait for the follower's
	// journal ack, with SemisyncTimeout fallback to async).
	ReplMode string
	// SemisyncTimeout caps the semisync ack wait (default 2s).
	SemisyncTimeout time.Duration
	// ReplHeartbeatEvery is the leader→follower heartbeat cadence
	// (default 1s).
	ReplHeartbeatEvery time.Duration
	// PromoteAfter auto-promotes a synced follower when no leader
	// heartbeat arrives for this long (0 = manual promotion only).
	PromoteAfter time.Duration
	// ShedTarget is the CoDel-style queue-delay shedding target: when
	// dequeue sojourns stay above it for ShedInterval, new submissions
	// are shed with 429 + Retry-After until a sojourn dips back under.
	// 0 means the default (1s); negative disables delay shedding.
	ShedTarget time.Duration
	// ShedInterval is how long sojourns must stay above ShedTarget
	// before shedding arms (default 100ms).
	ShedInterval time.Duration
	// RetryBudget is the global retry token-bucket earn rate: each
	// admitted job earns this many retry tokens, and each automatic
	// retry spends one, so retries cannot exceed this fraction of
	// admitted work during sustained overload. 0 means the default
	// (0.1); negative disables the budget (retries bounded only by
	// RetryPolicy.MaxRetries).
	RetryBudget float64
	// RetryBurst caps the retry token bucket (default 32), bounding how
	// large a retry storm an idle period can bank.
	RetryBurst float64
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.EngineCacheSize <= 0 {
		c.EngineCacheSize = 8
	}
	if c.MaxGraphs <= 0 {
		c.MaxGraphs = 64
	}
	if c.MaxVertices <= 0 {
		c.MaxVertices = 1 << 22
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 1 << 26
	}
	if c.DefaultSystem.Tiles <= 0 || c.DefaultSystem.PEsPerTile <= 0 {
		c.DefaultSystem = cosparse.System{Tiles: 16, PEsPerTile: 16}
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	c.Retry = c.Retry.withDefaults()
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 16
	}
	if c.BatchMaxLanes <= 0 || c.BatchMaxLanes > kernels.LaneBlock {
		c.BatchMaxLanes = kernels.LaneBlock
	}
	switch {
	case c.ShedTarget == 0:
		c.ShedTarget = time.Second
	case c.ShedTarget < 0:
		c.ShedTarget = 0 // disabled
	}
	if c.ShedInterval <= 0 {
		c.ShedInterval = 100 * time.Millisecond
	}
	switch {
	case c.RetryBudget == 0:
		c.RetryBudget = 0.1
	case c.RetryBudget < 0:
		c.RetryBudget = 0 // disabled
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = 32
	}
	return c
}

// Service is the cosparsed daemon: registry + scheduler + metrics
// behind an HTTP/JSON API.
type Service struct {
	cfg      Config
	m        *Metrics
	reg      *Registry
	sched    *Scheduler
	log      *slog.Logger
	start    time.Time
	draining atomic.Bool // set by Drain and Close: shutdown has begun
	// traceMu serializes JSONL writes to cfg.TraceSink (jobs finish on
	// concurrent workers).
	traceMu sync.Mutex
	// db is the durability store (journal + snapshots); nil when the
	// service runs without a data dir. Every journal hook no-ops on
	// nil, so the in-memory fast path is untouched.
	db *store.Store
	// recovered summarizes the last startup recovery (zero without
	// one).
	recovered RecoveryStats
	// batcher coalesces compatible jobs into fused multi-vector runs;
	// nil when cfg.BatchWindow is 0 (every job runs solo).
	batcher *batch.Coalescer

	// Replication role state. standby is true while this node follows a
	// leader (mutating endpoints 503); promotion flips it after recovery.
	standby atomic.Bool
	// replStats is the lock-free counter block shared with the metrics
	// endpoint; always allocated (state stays "off" without replication).
	replStats *repl.Stats
	// replLeader is the leader-side replicator: set for every durable
	// leader (a follower can attach to any of them), and installed by
	// Promote on an ex-standby. Loaded from the store's append hook, so
	// it must be an atomic pointer.
	replLeader atomic.Pointer[repl.Replicator]
	// follower is the standby-side stream applier; nil on a born-leader.
	follower *repl.Follower
	// followerStop cancels the follower's register/watchdog loop.
	followerStop context.CancelFunc
	// replEpoch mirrors the persisted replication epoch.
	replEpoch atomic.Uint64
	// replMode is the parsed cfg.ReplMode.
	replMode repl.Mode
	// promoteMu serializes Promote (manual + heartbeat-timeout callers).
	promoteMu sync.Mutex
}

// New assembles a Service (call Close when done).
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Service{
		cfg:   cfg,
		m:     m,
		reg:   NewRegistry(cfg.MaxGraphs, cfg.EngineCacheSize, cfg.MaxVertices, cfg.MaxEdges, m),
		log:   cfg.Logger,
		start: time.Now(),
	}
	s.replStats = &repl.Stats{}
	s.m.Repl = s.replStats
	s.reg.SetMemoryBudget(cfg.MemoryBudgetBytes)
	s.reg.SetFaults(cfg.Faults)
	s.reg.SetTraceCap(cfg.TraceCap)
	if cfg.BatchWindow > 0 {
		s.batcher = batch.New(cfg.BatchWindow, cfg.BatchMaxLanes, s.runBatch)
	}
	s.sched = NewScheduler(cfg.Workers, cfg.QueueDepth, s.runJob, m)
	s.sched.retry = cfg.Retry
	s.sched.onStart = s.journalStart
	s.sched.onRetry = s.journalRetry
	s.sched.onFinish = s.journalFinish
	// Overload knobs: withDefaults already resolved "0 = default,
	// negative = off" into concrete values (0 meaning off here).
	s.sched.shedTarget = cfg.ShedTarget
	s.sched.shedInterval = cfg.ShedInterval
	s.sched.retryRatio = cfg.RetryBudget
	s.sched.retryBurst = cfg.RetryBurst
	s.sched.retryTokens = cfg.RetryBurst // start with a full bucket
	return s
}

// Open assembles a Service with durability when cfg.DataDir is set: it
// opens (creating if needed) the WAL journal and snapshot store under
// the data dir, replays the journal, restores registered graphs,
// re-enqueues every unfinished job (resuming from the latest valid
// checkpoint where one exists), and compacts the journal to the live
// state. With an empty DataDir it is exactly New.
func Open(cfg Config) (*Service, error) {
	s := New(cfg)
	mode, err := repl.ParseMode(s.cfg.ReplMode)
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.replMode = mode
	if s.cfg.FollowLeader != "" && s.cfg.DataDir == "" {
		s.sched.Close()
		return nil, fmt.Errorf("follower mode (-follow) requires a data dir")
	}
	if s.cfg.DataDir == "" {
		return s, nil
	}
	db, err := store.Open(s.cfg.DataDir, store.Options{
		NoSync:   s.cfg.StoreNoSync,
		Faults:   s.cfg.Faults,
		OnAppend: func(n int) { s.m.JournalBytes.Add(int64(n)) },
		// Every committed journal frame is offered to the replicator.
		// The closure re-reads the atomic pointer so frames flow to the
		// replicator a promotion installs later; while it is nil (e.g.
		// during recovery) frames are skipped, which is safe — a
		// follower attach always starts with a full resync.
		OnAppendFrame: func(seq uint64, frame []byte) {
			if rl := s.replLeader.Load(); rl != nil {
				rl.OnRecord(seq, frame)
			}
		},
		Logf: func(format string, args ...any) {
			s.log.Info(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		s.sched.Close()
		return nil, err
	}
	s.db = db
	s.sched.durable = true
	s.sched.onSubmit = s.journalSubmit
	if s.cfg.FollowLeader != "" {
		// Standby: the journal belongs to the replication stream, so
		// recovery is deferred to promotion — replaying it now would
		// start jobs that the leader is still running.
		s.standby.Store(true)
		f, err := repl.NewFollower(repl.FollowerConfig{
			Store:        db,
			DataDir:      s.cfg.DataDir,
			LeaderURL:    s.cfg.FollowLeader,
			SelfURL:      s.cfg.AdvertiseURL,
			PromoteAfter: s.cfg.PromoteAfter,
			OnPromote: func(reason string) {
				if _, err := s.Promote(reason); err != nil {
					s.log.Error("auto-promote failed", slog.String("err", err.Error()))
				}
			},
			Faults: s.cfg.Faults,
			Stats:  s.replStats,
			Logger: s.replLog(),
		})
		if err != nil {
			s.sched.Close()
			db.Close()
			return nil, err
		}
		s.follower = f
		s.replEpoch.Store(f.Epoch())
		ctx, cancel := context.WithCancel(context.Background())
		s.followerStop = cancel
		go f.Run(ctx)
		return s, nil
	}
	if err := s.recover(); err != nil {
		s.sched.Close()
		db.Close()
		return nil, err
	}
	// Every durable leader runs a replicator (idle until a follower
	// registers), so standby attachment needs no leader-side flag.
	epoch, err := repl.LoadEpoch(s.cfg.DataDir)
	if err != nil {
		s.sched.Close()
		db.Close()
		return nil, err
	}
	s.replEpoch.Store(epoch)
	s.replLeader.Store(s.newReplicator(epoch))
	return s, nil
}

// Store exposes the durability store (nil without a data dir); the
// daemon uses it for shutdown, tests for white-box assertions.
func (s *Service) Store() *store.Store { return s.db }

// Recovered reports what the last startup recovery found (zero values
// without a data dir or on a fresh dir).
func (s *Service) Recovered() RecoveryStats { return s.recovered }

// Close drains the worker pool, cancelling live jobs, and closes the
// durability store. Like a drain it is a restart in progress: the jobs
// it interrupts are not journaled as cancelled, so a durable service
// reopened on the same data dir runs them again.
func (s *Service) Close() {
	s.draining.Store(true)
	s.sched.Close()
	if s.followerStop != nil {
		s.followerStop()
	}
	if rl := s.replLeader.Load(); rl != nil {
		rl.Close()
	}
	if s.db != nil {
		s.db.Close()
	}
}

// Drain stops the service gracefully: /readyz flips to 503, new
// submissions are refused with ErrDraining, queued jobs are failed,
// and in-flight jobs get until ctx's deadline to finish before being
// cancelled. Safe to call alongside (or instead of) Close.
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.log.Info("drain started")
	err := s.sched.Drain(ctx)
	if err != nil {
		s.log.Warn("drain deadline hit; in-flight jobs cancelled", slog.String("err", err.Error()))
	} else {
		s.log.Info("drain complete")
	}
	return err
}

// Metrics exposes the service's counters (for the daemon's own use).
func (s *Service) Metrics() *Metrics { return s.m }

// Handler returns the full HTTP API with request logging, per-route
// latency instrumentation, and (optionally) pprof attached.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	// Mutating endpoints are guarded: a standby answers 503 on them
	// until promoted, so clients never write to a node whose journal is
	// owned by the replication stream.
	s.route(mux, "POST /v1/graphs", s.guardStandby(s.handleRegisterGraph))
	s.route(mux, "GET /v1/graphs", s.handleListGraphs)
	s.route(mux, "GET /v1/graphs/{id}", s.handleGetGraph)
	s.route(mux, "DELETE /v1/graphs/{id}", s.guardStandby(s.handleDeleteGraph))
	s.route(mux, "POST /v1/jobs", s.guardStandby(s.handleSubmitJob))
	s.route(mux, "POST /v1/jobs/batch", s.guardStandby(s.handleSubmitBatch))
	s.route(mux, "GET /v1/jobs", s.handleListJobs)
	s.route(mux, "GET /v1/jobs/{id}", s.handleGetJob)
	s.route(mux, "GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.route(mux, "DELETE /v1/jobs/{id}", s.guardStandby(s.handleCancelJob))
	s.route(mux, "GET /healthz", s.handleHealth)
	s.route(mux, "GET /readyz", s.handleReady)
	s.route(mux, "GET /metrics", s.handleMetrics)
	s.route(mux, "GET /replication", s.handleReplication)
	s.route(mux, "POST /v1/repl/register", s.handleReplRegister)
	s.route(mux, "POST /v1/admin/promote", s.handlePromote)
	if s.follower != nil {
		// The stream-apply endpoints exist only on a node started as a
		// follower; after promotion they keep answering 409 (fenced).
		fh := s.follower.Handler()
		for _, p := range []string{
			"POST /v1/repl/apply",
			"POST /v1/repl/heartbeat",
			"POST /v1/repl/resync/begin",
			"POST /v1/repl/resync/chunk",
			"POST /v1/repl/resync/snapshot/{job}",
			"POST /v1/repl/resync/commit",
			"POST /v1/repl/snapshot/{job}",
		} {
			mux.Handle(p, fh)
		}
	}
	if s.cfg.EnablePprof {
		// Mounted on the service mux (not http.DefaultServeMux, which
		// importing net/http/pprof would populate globally) so the flag
		// actually gates exposure. Left uninstrumented: profile pulls
		// run for tens of seconds and would pollute the latency
		// histograms.
		mux.HandleFunc("GET /debug/pprof/", netpprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", netpprof.Trace)
	}
	return s.logging(s.recovery(s.limitBody(mux)))
}

// route registers h under pattern with per-route instrumentation: an
// in-flight gauge and a latency histogram labeled by the route pattern
// and final status code. The pattern is the label (known statically at
// registration), so path parameters like job ids never explode metric
// cardinality. A panicking handler is recorded as a 500 and re-panicked
// for the recovery middleware to convert.
func (s *Service) route(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		s.m.HTTPInFlight.Add(1)
		t0 := time.Now()
		defer func() {
			s.m.HTTPInFlight.Add(-1)
			status := http.StatusOK
			if sw, ok := w.(*statusWriter); ok && sw.status != 0 {
				status = sw.status
			}
			if v := recover(); v != nil {
				s.m.ObserveHTTP(pattern, http.StatusInternalServerError, time.Since(t0).Seconds())
				panic(v)
			}
			s.m.ObserveHTTP(pattern, status, time.Since(t0).Seconds())
		}()
		h(w, r)
	})
}

// recovery converts handler panics (a bug, or injected via
// fault.HTTPHandler) into 500s instead of killing the connection, and
// counts them. The server process never dies from a request.
func (s *Service) recovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.m.Panics.Add(1)
				s.log.Error("handler panic",
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Any("panic", v),
					slog.String("stack", string(debug.Stack())),
				)
				if sw, ok := w.(*statusWriter); !ok || sw.status == 0 {
					writeError(w, http.StatusInternalServerError, "internal error: %v", v)
				}
			}
		}()
		if err := s.cfg.Faults.Check(fault.HTTPHandler); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// limitBody caps request bodies; overlong ones surface as
// *http.MaxBytesError from decodeBody and map to 413.
func (s *Service) limitBody(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// logging is the structured request-log middleware.
func (s *Service) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.HTTPRequests.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Info("http",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Duration("dur", time.Since(t0)),
		)
	})
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeSubmitError maps a scheduler admission failure onto HTTP.
// Overload rejections (queue full, shed) answer 429; shutdown states
// answer 503. Every refusal carries Retry-After so well-behaved
// clients back off instead of hammering an overloaded queue — for shed
// jobs the hint comes from the controller's view of how far the queue
// delay overshoots its target.
func writeSubmitError(w http.ResponseWriter, err error) {
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// retryAfterSeconds renders a Retry-After header value: whole seconds,
// at least 1 (the header does not admit fractions).
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

func (s *Service) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if err := decodeBody(r, &spec); err != nil {
		writeDecodeError(w, "bad graph spec", err)
		return
	}
	if strings.TrimSpace(spec.Format) == "" {
		// Resolve the server default into the spec before registering so
		// the journaled record replays identically after a restart even
		// if the daemon's -format default changes in between.
		spec.Format = s.cfg.DefaultFormat
	}
	e, err := s.reg.Register(spec)
	if err != nil {
		var be *BudgetError
		switch {
		case errors.As(err, &be):
			// admitLocked already counted the rejection. The budget
			// frees up when graphs are deleted or jobs finish, so the
			// condition is retryable — tell clients when to come back.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		case fault.IsTransient(err):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	if err := s.journalGraph(e.ID, spec); err != nil {
		// Durable mode: a graph the journal cannot record would vanish
		// on restart while jobs reference it. Unwind and refuse.
		_ = s.reg.Delete(e.ID)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "journal write failed: %v", err)
		return
	}
	info, _ := s.reg.Info(e.ID)
	s.log.Info("graph registered",
		slog.String("graph", e.ID),
		slog.String("kind", info.Kind),
		slog.Int("vertices", info.Vertices),
		slog.Int("edges", info.Edges),
		slog.String("format", info.Format),
		slog.Int64("resident_bytes", info.ResidentBytes),
	)
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"graphs": s.reg.List()})
}

func (s *Service) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, ok := s.reg.Info(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown graph %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Delete(r.PathValue("id")); err != nil {
		code := http.StatusNotFound
		if ge := s.reg.Get(r.PathValue("id")); ge != nil {
			code = http.StatusConflict // exists but busy
		}
		writeError(w, code, "%v", err)
		return
	}
	s.journalGraphDelete(r.PathValue("id"))
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

func (s *Service) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, "bad job request", err)
		return
	}
	j, err := s.buildJob(req)
	if err != nil {
		var nf *notFoundError
		if errors.As(err, &nf) {
			writeError(w, http.StatusNotFound, "%v", err)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	if err := s.sched.SubmitJob(j, timeout); err != nil {
		j.release() // the job never entered the queue; unpin here
		writeSubmitError(w, err)
		return
	}
	s.log.Info("job queued",
		slog.String("job", j.id),
		slog.String("graph", j.req.GraphID),
		slog.String("algo", j.algo.String()),
		slog.String("system", j.sys.String()),
	)
	// Semisync: the 202 is held until the follower has journaled the
	// submit record (or the timeout falls back to async). The job is
	// already durable and queued locally either way.
	s.semisyncWait(r, j.replSeq)
	writeJSON(w, http.StatusAccepted, j.Status())
}

// MaxBatchJobs caps how many jobs one POST /v1/jobs/batch may carry;
// MaxTiles and MaxPEs cap a job's geometry override.
const (
	MaxBatchJobs = 256
	MaxTiles     = 64
	MaxPEs       = 64
)

func (s *Service) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchJobRequest
	if err := decodeBody(r, &req); err != nil {
		writeDecodeError(w, "bad batch request", err)
		return
	}
	algo, err := cosparse.ParseAlgo(req.Algo)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	n := len(req.Sources)
	if algo.NeedsSource() {
		if n == 0 {
			writeError(w, http.StatusBadRequest, "algorithm %q needs a sources list", algo)
			return
		}
		if req.Count != 0 && req.Count != n {
			writeError(w, http.StatusBadRequest, "count %d disagrees with %d sources", req.Count, n)
			return
		}
	} else {
		if n != 0 {
			writeError(w, http.StatusBadRequest, "algorithm %q takes count, not sources", algo)
			return
		}
		if n = req.Count; n <= 0 {
			writeError(w, http.StatusBadRequest, "count must be positive, got %d", req.Count)
			return
		}
	}
	if n > MaxBatchJobs {
		writeError(w, http.StatusBadRequest, "batch of %d jobs exceeds the limit %d", n, MaxBatchJobs)
		return
	}
	jobs := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		jr := JobRequest{
			GraphID: req.GraphID, Algo: req.Algo, Tenant: req.Tenant,
			Iterations: req.Iterations, Alpha: req.Alpha, Beta: req.Beta, Lambda: req.Lambda,
			Tiles: req.Tiles, PEs: req.PEs, Backend: req.Backend,
			TimeoutMs: req.TimeoutMs, IncludeTrace: req.IncludeTrace,
		}
		if algo.NeedsSource() {
			jr.Source = req.Sources[i]
		}
		j, err := s.buildJob(jr)
		if err != nil {
			// All-or-nothing validation: unpin everything built so far.
			for _, built := range jobs {
				built.release()
			}
			var nf *notFoundError
			if errors.As(err, &nf) {
				writeError(w, http.StatusNotFound, "job %d: %v", i, err)
			} else {
				writeError(w, http.StatusBadRequest, "job %d: %v", i, err)
			}
			return
		}
		jobs = append(jobs, j)
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	statuses := make([]JobStatus, 0, n)
	// For semisync, one wait on the highest journaled sequence number
	// covers the whole batch (the follower applies in order).
	var maxSeq uint64
	for i, j := range jobs {
		if err := s.sched.SubmitJob(j, timeout); err != nil {
			// Jobs already submitted stay submitted; the remainder is
			// refused as a unit.
			for _, rest := range jobs[i:] {
				rest.release()
			}
			if len(statuses) > 0 {
				s.semisyncWait(r, maxSeq)
				writeJSON(w, http.StatusAccepted, BatchJobResponse{
					Jobs: statuses, Rejected: n - len(statuses), Error: err.Error(),
				})
				return
			}
			writeSubmitError(w, err)
			return
		}
		if j.replSeq > maxSeq {
			maxSeq = j.replSeq
		}
		statuses = append(statuses, j.Status())
	}
	s.log.Info("batch queued",
		slog.String("graph", req.GraphID),
		slog.String("algo", algo.String()),
		slog.Int("jobs", len(statuses)),
	)
	s.semisyncWait(r, maxSeq)
	writeJSON(w, http.StatusAccepted, BatchJobResponse{Jobs: statuses})
}

// notFoundError marks validation failures that should map to 404.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

// buildJob validates the request against the registry and pins the
// graph. On success the caller owns the release (via scheduler finish
// or explicit call on submit failure).
func (s *Service) buildJob(req JobRequest) (*Job, error) {
	algo, err := cosparse.ParseAlgo(req.Algo)
	if err != nil {
		return nil, err
	}
	sys := s.cfg.DefaultSystem
	if req.Tiles != 0 || req.PEs != 0 {
		if req.Tiles <= 0 || req.PEs <= 0 {
			return nil, fmt.Errorf("tiles and pes must both be positive, got %d/%d", req.Tiles, req.PEs)
		}
		if req.Tiles > MaxTiles || req.PEs > MaxPEs {
			return nil, fmt.Errorf("geometry %dx%d exceeds the server limit %dx%d", req.Tiles, req.PEs, MaxTiles, MaxPEs)
		}
		sys = cosparse.System{Tiles: req.Tiles, PEsPerTile: req.PEs}
	}
	if req.Iterations < 0 {
		return nil, fmt.Errorf("iterations must be positive, got %d", req.Iterations)
	}
	if req.Iterations == 0 {
		req.Iterations = 10
	}
	if req.Alpha == 0 {
		req.Alpha = 0.15
	}
	if req.Beta == 0 {
		req.Beta = 0.05
	}
	if req.Lambda == 0 {
		req.Lambda = 0.01
	}
	bs := req.Backend
	if bs == "" {
		bs = s.cfg.DefaultBackend
	}
	backend, err := cosparse.ParseBackend(bs)
	if err != nil {
		return nil, err
	}
	ge, err := s.reg.Acquire(req.GraphID)
	if err != nil {
		return nil, &notFoundError{msg: err.Error()}
	}
	if algo.NeedsSource() && (req.Source < 0 || int(req.Source) >= ge.Graph.NumVertices()) {
		s.reg.Release(ge)
		return nil, fmt.Errorf("source %d out of range [0,%d)", req.Source, ge.Graph.NumVertices())
	}
	j := &Job{req: req, algo: algo, sys: sys, backend: backend, graph: ge}
	// The fair-queueing tenant defaults to the graph id: multi-tenant
	// deployments typically partition by graph, so an unlabeled hot
	// graph cannot starve the others even before clients adopt the
	// tenant field.
	j.tenant = strings.TrimSpace(req.Tenant)
	if j.tenant == "" {
		j.tenant = req.GraphID
	}
	j.release = func() { s.reg.Release(ge) }
	return j, nil
}

// runJob executes one job on a worker goroutine; the scheduler maps
// its error into the job's terminal state. With batching enabled the
// job first rendezvouses in the coalescer: compatible jobs arriving
// within the gather window run as lanes of one fused multi-vector
// pass. Either way the job runs as a member of a group — alone in it
// when batching is off or nobody joined.
func (s *Service) runJob(j *Job) (*JobResult, error) {
	if err := s.cfg.Faults.Check(fault.JobRun); err != nil {
		return nil, err
	}
	if s.batcher != nil {
		v, err := s.batcher.Run(j.ctx, s.batchKey(j), j)
		if err != nil {
			return nil, err
		}
		res, _ := v.(*JobResult)
		return res, nil
	}
	results, errs := s.runGroup([]*Job{j})
	return results[0], errs[0]
}

// batchKey groups jobs that may fuse: everything that shapes the run
// except the source vertex — graph, algorithm, backend, geometry and
// numeric parameters. Lanes keep their own context and deadline.
func (s *Service) batchKey(j *Job) string {
	return fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%d\x00%g\x00%g\x00%g",
		j.req.GraphID, j.algo, j.backend, j.sys,
		j.req.Iterations, j.req.Alpha, j.req.Beta, j.req.Lambda)
}

// runBatch executes one coalesced group on the goroutine of the
// group's leader (the first job under the key); follower jobs block in
// the coalescer until their lane's result is delivered.
func (s *Service) runBatch(key string, lanes []*batch.Lane) {
	s.m.ObserveBatch(len(lanes))
	jobs := make([]*Job, len(lanes))
	for i, l := range lanes {
		jobs[i] = l.Payload.(*Job)
	}
	results, errs := s.runGroup(jobs)
	for i, l := range lanes {
		l.Deliver(results[i], errs[i])
	}
}

// runGroup is the one run path: k ≥ 1 compatible jobs (same graph,
// algorithm, backend, geometry and numeric parameters — batchKey)
// execute as the lanes of one engine run. Slot i of both returned
// slices belongs to jobs[i]; a failed lane has a nil result. A group of
// one is a solo run (fused unset, mode="solo"); larger groups mark
// every lane fused.
func (s *Service) runGroup(jobs []*Job) ([]*JobResult, []error) {
	k := len(jobs)
	results := make([]*JobResult, k)
	errs := make([]error, k)
	j0 := jobs[0]
	ee, err := s.reg.Engine(j0.graph, j0.sys, j0.backend)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return results, errs
	}

	fused, mode := k > 1, "solo"
	if fused {
		mode = "fused"
	}
	// expired[i] is set for a job whose context ended before its run
	// began — in the gather window or while the engine was built: it is
	// settled with the bare context error and no trace, as a job that
	// never ran.
	expired := make([]error, k)
	ctxs := make([]context.Context, k)
	srcs := make([]int32, k)
	for i, j := range jobs {
		expired[i] = j.ctx.Err()
		if fused {
			j.markFused(k)
		}
		// With a data dir the run context carries the checkpoint
		// config: periodic snapshots through the store, and the resume
		// point for journal-recovered jobs. Without one this is j.ctx
		// unchanged.
		ctxs[i] = s.checkpointContext(j)
		srcs[i] = j.req.Source
	}

	t0 := time.Now()
	var reps []*cosparse.Report
	var fill func(res *JobResult, i int) // derives lane i's headline numbers
	switch j0.algo {
	case cosparse.AlgoBFS:
		outs, r, e := ee.eng.BFSBatch(ctxs, srcs)
		reps, errs = r, e
		fill = func(res *JobResult, i int) { fillBFS(res, jobs[i], outs[i]) }
	case cosparse.AlgoSSSP:
		outs, r, e := ee.eng.SSSPBatch(ctxs, srcs)
		reps, errs = r, e
		fill = func(res *JobResult, i int) { fillSSSP(res, jobs[i], outs[i]) }
	case cosparse.AlgoPageRank:
		outs, r, e := ee.eng.PageRankBatch(ctxs, k, j0.req.Iterations, float32(j0.req.Alpha))
		reps, errs = r, e
		fill = func(res *JobResult, i int) { fillPR(res, jobs[i], outs[i]) }
	case cosparse.AlgoPPR:
		outs, r, e := ee.eng.PersonalizedPageRankBatch(ctxs, srcs, j0.req.Iterations, float32(j0.req.Alpha))
		reps, errs = r, e
		fill = func(res *JobResult, i int) { fillPPR(res, jobs[i], outs[i]) }
	case cosparse.AlgoCF:
		_, r, e := ee.eng.CFBatch(ctxs, k, j0.req.Iterations, float32(j0.req.Beta), float32(j0.req.Lambda))
		reps, errs = r, e
		fill = func(res *JobResult, i int) { fillCF(res, jobs[i]) }
	default:
		reps = make([]*cosparse.Report, k)
		for i := range errs {
			errs[i] = fmt.Errorf("algorithm %q not runnable as a job", j0.algo)
		}
	}
	// Every lane waited for the whole pass, so the group's wall is each
	// job's honest latency. The amortized per-lane cycle and energy
	// shares are already apportioned inside the reports.
	wall := time.Since(t0)

	for i, j := range jobs {
		if expired[i] != nil {
			errs[i] = expired[i]
			continue
		}
		// Keep the trace even when the run stopped early: the partial
		// report covers the iterations that did complete, which is
		// exactly what an operator debugging a timeout or fault wants
		// to see.
		rep := reps[i]
		j.setTrace(rep)
		s.sinkTrace(j, errs[i])
		if errs[i] != nil {
			s.log.Warn("job stopped",
				slog.String("job", j.id),
				slog.String("algo", j.algo.String()),
				slog.Bool("fused", fused),
				slog.Duration("wall", wall),
				slog.String("err", errs[i].Error()),
			)
			continue
		}
		res := &JobResult{Algo: j.algo.String(), Backend: j.backend.String()}
		fill(res, i)
		res.Iterations = rep.TotalIterations
		res.TotalCycles = rep.TotalCycles
		res.SimSeconds = rep.Seconds
		res.EnergyJ = rep.EnergyJ
		res.WallMs = float64(wall) / float64(time.Millisecond)
		if j.req.IncludeTrace {
			res.Report = rep
		}
		s.m.ObserveJob(j.algo.String(), j.backend.String(), mode, rep.TotalCycles, wall.Seconds())
		// Memory-system stats of a shared kernel pass describe the whole
		// group, so they are attributable — and observed — only when the
		// group is one lane.
		if mem := rep.Memory; mem != nil && !fused {
			reconfigs := int64(0)
			for _, it := range rep.Iterations {
				if it.Reconfigured {
					reconfigs++
				}
			}
			s.m.ObserveSim(mem.HBMReadLines, mem.HBMWriteLines,
				mem.HBMReadQueuedCycles, mem.HBMWriteQueuedCycles,
				mem.StallCycles, reconfigs)
		}
		if s.cfg.SlowJob > 0 && wall >= s.cfg.SlowJob {
			s.log.Warn("slow job",
				slog.String("job", j.id),
				slog.String("algo", j.algo.String()),
				slog.Duration("wall", wall),
				slog.Duration("threshold", s.cfg.SlowJob),
				slog.Int64("cycles", rep.TotalCycles),
				slog.Int("iterations", rep.TotalIterations),
				slog.String("decisions", decisionTrace(rep)),
			)
		}
		s.log.Info("job done",
			slog.String("job", j.id),
			slog.String("algo", j.algo.String()),
			slog.Bool("fused", fused),
			slog.Int("lanes", k),
			slog.Int64("cycles", rep.TotalCycles),
			slog.Duration("wall", wall),
		)
		results[i] = res
	}
	return results, errs
}

// The fill helpers derive each algorithm's headline numbers and
// summary line from its raw output.

func fillBFS(res *JobResult, j *Job, out *cosparse.BFSResult) {
	for _, l := range out.Level {
		if l >= 0 {
			res.Reached++
		}
	}
	res.Summary = fmt.Sprintf("bfs from %d reached %d/%d vertices", j.req.Source, res.Reached, j.graph.Graph.NumVertices())
}

func fillSSSP(res *JobResult, j *Job, dist []float32) {
	sum := 0.0
	for _, d := range dist {
		if !math.IsInf(float64(d), 1) {
			sum += float64(d)
			res.Reached++
		}
	}
	if res.Reached > 0 {
		res.MeanDistance = sum / float64(res.Reached)
	}
	res.Summary = fmt.Sprintf("sssp from %d reached %d vertices, mean distance %.4f", j.req.Source, res.Reached, res.MeanDistance)
}

func fillPR(res *JobResult, j *Job, pr []float32) {
	for i, v := range pr {
		if float64(v) > res.TopScore {
			res.TopVertex, res.TopScore = int32(i), float64(v)
		}
	}
	res.Summary = fmt.Sprintf("pagerank(%d iters): top vertex %d score %.5f", j.req.Iterations, res.TopVertex, res.TopScore)
}

func fillPPR(res *JobResult, j *Job, pr []float32) {
	for i, v := range pr {
		if float64(v) > res.TopScore {
			res.TopVertex, res.TopScore = int32(i), float64(v)
		}
	}
	res.Summary = fmt.Sprintf("ppr from seed %d (%d iters): top vertex %d score %.5f", j.req.Source, j.req.Iterations, res.TopVertex, res.TopScore)
}

func fillCF(res *JobResult, j *Job) {
	res.Summary = fmt.Sprintf("cf trained %d iterations", j.req.Iterations)
}

// decisionTrace renders the report's per-iteration configuration
// choices as a compact arrow chain ("OP/PC>IP/SCS>..."), collapsing
// consecutive repeats into a count — the one-line form of Fig. 9 used
// in slow-job logs.
func decisionTrace(rep *cosparse.Report) string {
	if len(rep.Iterations) == 0 {
		return "(no iterations)"
	}
	var sb strings.Builder
	if rep.TraceDropped > 0 {
		fmt.Fprintf(&sb, "(%d earlier dropped)>", rep.TraceDropped)
	}
	run := 0
	cur := ""
	flush := func() {
		if run == 0 {
			return
		}
		if sb.Len() > 0 && !strings.HasSuffix(sb.String(), ">") {
			sb.WriteString(">")
		}
		if run > 1 {
			fmt.Fprintf(&sb, "%sx%d", cur, run)
		} else {
			sb.WriteString(cur)
		}
	}
	for _, it := range rep.Iterations {
		c := it.Software + "/" + it.Hardware
		if c == cur {
			run++
			continue
		}
		flush()
		cur, run = c, 1
	}
	flush()
	return sb.String()
}

// sinkTrace appends the job's trace to the configured sink as one JSON
// line (JSONL): the daemon-side equivalent of the CLI's -trace flag.
// Called from the worker before the scheduler's terminal transition, so
// the run's outcome is patched in from err.
func (s *Service) sinkTrace(j *Job, err error) {
	if s.cfg.TraceSink == nil {
		return
	}
	tr := j.Trace()
	if tr == nil {
		return
	}
	if err != nil {
		tr.State, tr.Partial = JobFailed, true
	} else {
		tr.State, tr.Partial = JobDone, false
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	enc := json.NewEncoder(s.cfg.TraceSink)
	if err := enc.Encode(tr); err != nil {
		s.log.Warn("trace sink write failed", slog.String("err", err.Error()))
	}
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.List()})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.sched.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleJobTrace serves the per-iteration decision trace of a job. The
// trace exists once an attempt has run — including partial runs after
// a deadline, cancellation, or fault — so a 409 means the job has not
// started executing yet.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.sched.Get(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	tr := j.Trace()
	if tr == nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, "job %q has not produced a trace yet (state %s)", j.ID(), j.State())
		return
	}
	writeJSON(w, http.StatusOK, tr)
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	if !s.sched.Cancel(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.sched.Get(r.PathValue("id")).Status())
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"uptime_ms":    time.Since(s.start).Milliseconds(),
		"graphs":       s.m.GraphsRegistered.Load(),
		"jobs_running": s.m.JobsRunning.Load(),
		"queue_depth":  s.m.JobsQueued.Load(),
	})
}

// handleReady is the readiness probe: 200 while serving, 503 once a
// drain has started so load balancers stop routing new work here. It
// also reports the replication role: a standby is 503 until its first
// resync commits ("syncing"), then 200 with "caught-up" — usable for
// reads, while mutations still 503 until promotion.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	role := "leader"
	if s.isStandby() {
		role = "follower"
	}
	resp := map[string]any{"status": "ready", "role": role}
	if s.draining.Load() {
		resp["status"] = "draining"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	if s.isStandby() {
		if s.follower.Synced() {
			resp["replication"] = "caught-up"
			writeJSON(w, http.StatusOK, resp)
		} else {
			resp["status"] = "standby-syncing"
			resp["replication"] = "syncing"
			writeJSON(w, http.StatusServiceUnavailable, resp)
		}
		return
	}
	if s.db != nil {
		resp["replication"] = repl.StateName(s.replStats.State.Load())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.m.WritePrometheus(w)
}

// decodeBody strictly decodes one JSON object from the request body.
// The body is already wrapped by limitBody's MaxBytesReader, so an
// oversize payload surfaces as *http.MaxBytesError.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	return nil
}

// writeDecodeError maps a decodeBody failure: oversize bodies get 413,
// everything else 400.
func writeDecodeError(w http.ResponseWriter, what string, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "%s: body exceeds %d bytes", what, mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%s: %v", what, err)
}
