// Command cosparsed is the CoSPARSE graph-analytics service: a
// long-running daemon that holds registered graphs, caches prepared
// engines, and runs bfs/sssp/pr/cf jobs against them through a bounded
// worker pool, all over an HTTP/JSON API.
//
// Usage:
//
//	cosparsed -addr :8080 -workers 4 -queue 32
//
// API sketch (see README "Running the service" for curl examples):
//
//	POST   /v1/graphs      register/generate a graph
//	GET    /v1/graphs      list graphs
//	GET    /v1/graphs/{id} one graph
//	DELETE /v1/graphs/{id} unregister (refused while jobs run)
//	POST   /v1/jobs              submit a job (202; 429 when saturated)
//	GET    /v1/jobs/{id}         job status / result
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/trace   per-iteration decision trace
//	GET    /healthz              liveness
//	GET    /metrics              Prometheus text metrics
//	GET    /debug/pprof/         profiling (only with -pprof)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cosparse"
	"cosparse/internal/fault"
	"cosparse/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "job worker pool size")
	queue := flag.Int("queue", 16, "bounded job queue depth (submissions beyond it get 429)")
	cache := flag.Int("engine-cache", 8, "LRU capacity of the prepared-engine cache")
	maxGraphs := flag.Int("max-graphs", 64, "maximum registered graphs")
	maxVertices := flag.Int("max-vertices", 1<<22, "per-graph vertex ceiling")
	maxEdges := flag.Int("max-edges", 1<<26, "per-graph edge ceiling")
	tiles := flag.Int("tiles", 16, "default simulated tiles for jobs that name no geometry")
	pes := flag.Int("pes", 16, "default simulated PEs per tile")
	backend := flag.String("backend", "sim", "default execution backend for jobs that name none: sim or native")
	format := flag.String("format", "auto", "default storage format for graphs registered without one: auto, csr, or dvcsr")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-job deadline")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "ceiling on client-requested job deadlines")
	memBudget := flag.Int64("mem-budget", 2<<30, "estimated-resident-bytes budget for registered graphs; loads beyond it get 413 (0 = unlimited)")
	maxBody := flag.Int64("max-body", 64<<20, "request body size limit in bytes (oversize bodies get 413)")
	retries := flag.Int("retries", 3, "max automatic re-runs of a transiently failing job (backoff between attempts)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long in-flight jobs get to finish on SIGTERM before being cancelled")
	faultSpec := flag.String("fault-spec", "", "arm deterministic fault injection, e.g. 'scheduler.job_run:err=0.1,transient=true' (testing only)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for -fault-spec decisions")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	pprof := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (unauthenticated; bind accordingly)")
	slowJob := flag.Duration("slow-job", 0, "log a warning with the decision trace for jobs slower than this (0 = off)")
	traceFile := flag.String("trace", "", "append every finished job's per-iteration trace as a JSON line to this file")
	traceCap := flag.Int("trace-cap", 0, "per-job iteration-trace ring size (0 = default 4096, negative = unbounded)")
	dataDir := flag.String("data-dir", "", "durability directory: journal job/graph transitions and checkpoint running jobs there, and recover from it on startup (empty = in-memory only)")
	ckptEvery := flag.Int("checkpoint-every", 0, "iterations between checkpoint snapshots of running jobs with -data-dir (0 = default 16, negative = journal only)")
	noSync := flag.Bool("store-no-sync", false, "skip fsync in the durability store (testing only; voids crash consistency)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "gather window for multi-source job fusion: compatible jobs arriving within it coalesce into one fused multi-vector run (0 = disable batching)")
	follow := flag.String("follow", "", "start as a hot standby of the leader at this base URL (requires -data-dir; mutating endpoints answer 503 until promoted)")
	advertise := flag.String("advertise", "", "base URL this node is reachable at, sent to the leader when following (default derived from -addr)")
	replMode := flag.String("repl-mode", "async", "leader submit-ack coupling: async (ack on local durability) or semisync (hold acks for the follower's journal ack)")
	semisyncTimeout := flag.Duration("semisync-timeout", 2*time.Second, "cap on the semisync ack wait before falling back to async (counted in metrics)")
	replHeartbeat := flag.Duration("repl-heartbeat", time.Second, "leader-to-follower heartbeat cadence")
	promoteAfter := flag.Duration("promote-after", 0, "auto-promote a synced standby when no leader heartbeat arrives for this long (0 = manual promotion only via POST /v1/admin/promote)")
	shedTarget := flag.Duration("shed-target", 0, "queue-delay shedding target: submissions are shed with 429 while dequeue delays stay above it (0 = default 1s, negative = disable)")
	shedInterval := flag.Duration("shed-interval", 0, "how long queue delays must exceed -shed-target before shedding arms (0 = default 100ms)")
	retryBudget := flag.Float64("retry-budget", 0, "retry tokens earned per admitted job, capping automatic retries as a fraction of admitted work (0 = default 0.1, negative = unlimited)")
	flag.Parse()

	if *workers <= 0 || *queue <= 0 || *cache <= 0 {
		fail(fmt.Errorf("-workers, -queue and -engine-cache must be positive, got %d/%d/%d", *workers, *queue, *cache))
	}
	if *tiles <= 0 || *pes <= 0 {
		fail(fmt.Errorf("-tiles and -pes must be positive, got %d/%d", *tiles, *pes))
	}
	if _, err := cosparse.ParseBackend(*backend); err != nil {
		fail(fmt.Errorf("-backend: %w", err))
	}
	if _, err := cosparse.ParseFormat(*format); err != nil {
		fail(fmt.Errorf("-format: %w", err))
	}
	if *timeout <= 0 || *maxTimeout < *timeout {
		fail(fmt.Errorf("need 0 < -timeout <= -max-timeout, got %s/%s", *timeout, *maxTimeout))
	}
	if *maxBody <= 0 || *retries < 0 || *drainTimeout <= 0 {
		fail(fmt.Errorf("need -max-body > 0, -retries >= 0, -drain-timeout > 0"))
	}
	if *follow != "" {
		if *dataDir == "" {
			fail(fmt.Errorf("-follow requires -data-dir (the replicated journal lives there)"))
		}
		if *advertise == "" {
			// ":8080" → "http://127.0.0.1:8080"; an explicit host:port is
			// used as-is. Cross-host deployments should pass -advertise.
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "127.0.0.1" + host
			}
			*advertise = "http://" + host
		}
	}
	if *semisyncTimeout <= 0 || *replHeartbeat <= 0 {
		fail(fmt.Errorf("need -semisync-timeout and -repl-heartbeat > 0"))
	}

	if *retries == 0 {
		*retries = -1 // RetryPolicy: 0 means default, negative disables
	}

	var inject *fault.Injector
	if *faultSpec != "" {
		var err error
		inject, err = fault.ParseSpec(*faultSeed, *faultSpec)
		if err != nil {
			fail(fmt.Errorf("-fault-spec: %w", err))
		}
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler)

	var traceSink io.Writer
	if *traceFile != "" {
		f, err := os.OpenFile(*traceFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fail(fmt.Errorf("-trace: %w", err))
		}
		defer f.Close()
		traceSink = f
	}

	svc, err := service.Open(service.Config{
		Workers:            *workers,
		QueueDepth:         *queue,
		EngineCacheSize:    *cache,
		MaxGraphs:          *maxGraphs,
		MaxVertices:        *maxVertices,
		MaxEdges:           *maxEdges,
		DefaultSystem:      cosparse.System{Tiles: *tiles, PEsPerTile: *pes},
		DefaultBackend:     *backend,
		DefaultFormat:      *format,
		DefaultTimeout:     *timeout,
		MaxTimeout:         *maxTimeout,
		MemoryBudgetBytes:  *memBudget,
		MaxBodyBytes:       *maxBody,
		Retry:              service.RetryPolicy{MaxRetries: *retries},
		Faults:             inject,
		Logger:             logger,
		EnablePprof:        *pprof,
		SlowJob:            *slowJob,
		TraceCap:           *traceCap,
		TraceSink:          traceSink,
		DataDir:            *dataDir,
		CheckpointEvery:    *ckptEvery,
		StoreNoSync:        *noSync,
		BatchWindow:        *batchWindow,
		FollowLeader:       *follow,
		AdvertiseURL:       *advertise,
		ReplMode:           *replMode,
		SemisyncTimeout:    *semisyncTimeout,
		ReplHeartbeatEvery: *replHeartbeat,
		PromoteAfter:       *promoteAfter,
		ShedTarget:         *shedTarget,
		ShedInterval:       *shedInterval,
		RetryBudget:        *retryBudget,
	})
	if err != nil {
		fail(fmt.Errorf("open service: %w", err))
	}
	defer svc.Close()
	if *dataDir != "" {
		rec := svc.Recovered()
		logger.Info("durability enabled",
			slog.String("data_dir", *dataDir),
			slog.Int("journal_records", rec.Records),
			slog.Int("graphs_restored", rec.GraphsRestored),
			slog.Int("jobs_resumed", rec.JobsResumed),
			slog.Int("jobs_restarted", rec.JobsRestarted),
			slog.Int("jobs_unrecoverable", rec.JobsFailed),
		)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      *maxTimeout + time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		logger.Info("cosparsed listening", slog.String("addr", *addr),
			slog.Int("workers", *workers), slog.Int("queue", *queue))
		errCh <- srv.ListenAndServe()
	}()

	select {
	case <-ctx.Done():
		// Graceful drain: /readyz flips to 503 immediately, queued jobs
		// are failed, and in-flight jobs get -drain-timeout to finish
		// before being cancelled. Only then is the listener closed, so
		// clients can still poll job status during the drain.
		logger.Info("shutting down", slog.Duration("drain_timeout", *drainTimeout))
		drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainTimeout)
		_ = svc.Drain(drainCtx)
		cancelDrain()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			logger.Warn("shutdown", slog.String("err", err.Error()))
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "cosparsed: %v\n", err)
	os.Exit(1)
}
