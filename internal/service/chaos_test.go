package service

import (
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
	"time"

	"cosparse/internal/fault"
)

// TestChaosManyJobsUnderInjection is the chaos suite: hundreds of jobs
// pushed through a small worker pool while the injector fires errors,
// panics, and latency at the job-run and iteration points. Every job
// must reach exactly one terminal state, no worker may die, and panics
// must be isolated with their stacks recorded. Run under -race (make
// chaos / make race).
func TestChaosManyJobsUnderInjection(t *testing.T) {
	const jobs = 250

	inject := fault.New(0xC0FFEE)
	inject.Arm(fault.JobRun, fault.Rule{
		ErrRate:     0.12,
		PanicRate:   0.04,
		LatencyRate: 0.3,
		Latency:     200 * time.Microsecond,
	})
	inject.Arm(fault.Iteration, fault.Rule{ErrRate: 0.02})

	cfg := Config{
		Workers:    4,
		QueueDepth: 64,
		Faults:     inject,
		Logger:     slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	svc := New(cfg)
	defer svc.Close()

	e, err := svc.reg.Register(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 9})
	if err != nil {
		t.Fatalf("register: %v", err)
	}

	submit := func() *Job {
		req := JobRequest{GraphID: e.ID, Algo: "pr", Iterations: 2}
		for {
			j, err := svc.buildJob(req)
			if err != nil {
				t.Fatalf("build job: %v", err)
			}
			err = svc.sched.SubmitJob(j, 30*time.Second)
			if err == nil {
				return j
			}
			j.release()
			var shed *ShedError
			if !errors.Is(err, ErrQueueFull) && !errors.As(err, &shed) {
				t.Fatalf("submit: %v", err)
			}
			time.Sleep(time.Millisecond) // queue saturated; let workers drain it
		}
	}

	all := make([]*Job, 0, jobs)
	for i := 0; i < jobs; i++ {
		all = append(all, submit())
	}
	for _, j := range all {
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			t.Fatalf("job %s stuck in state %q", j.ID(), j.State())
		}
	}

	// Every job is terminal; none should be cancelled (nobody cancelled).
	var done, failed, panicked int
	for _, j := range all {
		st := j.Status()
		switch st.State {
		case JobDone:
			done++
		case JobFailed:
			failed++
			if strings.Contains(st.Error, "panic:") {
				panicked++
				if !strings.Contains(st.Error, "goroutine") {
					t.Errorf("panic error for %s lacks a stack trace: %q", st.ID, st.Error)
				}
			}
		default:
			t.Errorf("job %s in non-terminal or unexpected state %q", st.ID, st.State)
		}
	}
	t.Logf("chaos: %d done, %d failed (%d by panic), %d panics recovered",
		done, failed, panicked, svc.m.Panics.Load())

	// The pool survived everything the injector threw at it.
	if got := svc.m.WorkersAlive.Load(); got != int64(cfg.Workers) {
		t.Errorf("workers alive = %d, want %d (a worker died)", got, cfg.Workers)
	}
	if done == 0 {
		t.Error("no job succeeded under injection")
	}
	if svc.m.Panics.Load() == 0 {
		t.Error("no panics recovered despite a 4% panic rate")
	}
	if panicked == 0 {
		t.Error("no job failed with a recorded panic stack")
	}

	// Disarm and prove the service is healthy: sentinel jobs sail through.
	inject.DisarmAll()
	for i := 0; i < 4; i++ {
		j := submit()
		select {
		case <-j.Done():
		case <-time.After(30 * time.Second):
			t.Fatalf("sentinel job %s stuck", j.ID())
		}
		if st := j.Status(); st.State != JobDone {
			t.Fatalf("sentinel job %s: state %q (err %q)", st.ID, st.State, st.Error)
		}
	}
}
