// Package batch implements the job-coalescing queue that sits between
// the service scheduler and the execution backends: compatible jobs
// submitted within a short gather window are grouped under a
// compatibility key and handed to a runner as one fused batch, which
// executes them as a blocked multi-vector (SpMM) run. The coalescer is
// generic over the payload — it knows nothing about graphs or
// algorithms, only about keys, windows and delivery.
//
// Grouping protocol: the first job to arrive under a key becomes the
// group's leader. It opens the gather window and waits; jobs arriving
// under the same key join the group until the window closes or the
// group fills. The leader then detaches the group atomically and
// invokes the runner; every lane — leader and followers alike — blocks
// only on its own delivery, so per-lane results, errors and
// cancellations stay independent.
package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Lane is one job's slot in a fused batch.
type Lane struct {
	// Ctx is the job's own context. The runner must honor it per lane:
	// a cancelled lane fails individually without disturbing the rest
	// of the batch.
	Ctx context.Context
	// Payload is the job the submitter enqueued, opaque to the
	// coalescer.
	Payload any

	res       any
	err       error
	delivered chan struct{}
	once      sync.Once
}

// Deliver hands the lane its result (or error). The first call wins;
// later calls are no-ops, so a runner's error broadcast cannot
// overwrite a result already delivered.
func (l *Lane) Deliver(res any, err error) {
	l.once.Do(func() {
		l.res = res
		l.err = err
		close(l.delivered)
	})
}

// Runner executes one detached batch. It must call Deliver on every
// lane; the coalescer backstops stragglers and panics so no submitter
// blocks forever.
type Runner func(key string, lanes []*Lane)

// group is one gathering batch: lanes accumulate until the leader's
// window fires or the group fills.
type group struct {
	lanes []*Lane
	full  chan struct{} // closed when len(lanes) reaches maxLanes
}

// Coalescer groups compatible submissions into fused batches.
type Coalescer struct {
	window   time.Duration
	maxLanes int
	run      Runner

	mu      sync.Mutex
	pending map[string]*group
}

// New builds a coalescer. window is the gather window the first job of
// a group holds open (<= 0 degenerates to batches of one, which is
// still useful for exercising the fused path); maxLanes caps the group
// size (values < 1 mean 1); run executes each detached batch.
func New(window time.Duration, maxLanes int, run Runner) *Coalescer {
	if maxLanes < 1 {
		maxLanes = 1
	}
	return &Coalescer{
		window:   window,
		maxLanes: maxLanes,
		run:      run,
		pending:  map[string]*group{},
	}
}

// errNotDelivered backstops runners that return without delivering a
// lane (a bug, but one that must not strand a submitter).
var errNotDelivered = errors.New("batch: runner returned without delivering a result")

// Run submits payload under the compatibility key and blocks until its
// lane is delivered or ctx is cancelled. All jobs sharing a key that
// arrive within one gather window execute as one fused batch; the
// result is whatever the runner delivered to this job's lane.
func (c *Coalescer) Run(ctx context.Context, key string, payload any) (any, error) {
	lane := &Lane{Ctx: ctx, Payload: payload, delivered: make(chan struct{})}

	c.mu.Lock()
	g := c.pending[key]
	leader := g == nil
	if leader {
		g = &group{full: make(chan struct{})}
		if c.maxLanes > 1 && c.window > 0 {
			c.pending[key] = g
		}
	}
	g.lanes = append(g.lanes, lane)
	if len(g.lanes) >= c.maxLanes {
		delete(c.pending, key)
		close(g.full)
	}
	c.mu.Unlock()

	if leader {
		c.lead(ctx, key, g)
	}

	select {
	case <-lane.delivered:
		return lane.res, lane.err
	case <-ctx.Done():
		// The fused run may still execute this lane (it is already
		// grouped); the submitter just stops waiting. The runner's
		// per-lane context check fails the lane at the next iteration
		// boundary.
		return nil, ctx.Err()
	}
}

// lead holds the gather window open, detaches the group, and executes
// it. Runs on the leader's goroutine: the leader pays the window wait,
// followers only wait for delivery.
func (c *Coalescer) lead(ctx context.Context, key string, g *group) {
	if c.maxLanes > 1 && c.window > 0 {
		timer := time.NewTimer(c.window)
		select {
		case <-timer.C:
		case <-g.full:
			timer.Stop()
		case <-ctx.Done():
			// Leader cancelled mid-window: the batch still runs (other
			// lanes joined in good faith); the runner fails the
			// leader's lane via its context.
			timer.Stop()
		}
		c.mu.Lock()
		if c.pending[key] == g {
			delete(c.pending, key)
		}
		lanes := g.lanes
		c.mu.Unlock()
		c.execute(key, lanes)
		return
	}
	c.execute(key, g.lanes)
}

// execute invokes the runner with panic containment: a panicking
// runner delivers the panic as an error to every undelivered lane
// instead of deadlocking the batch.
func (c *Coalescer) execute(key string, lanes []*Lane) {
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("batch: runner panicked: %v", r)
			for _, l := range lanes {
				l.Deliver(nil, err)
			}
			return
		}
		for _, l := range lanes {
			l.Deliver(nil, errNotDelivered)
		}
	}()
	c.run(key, lanes)
}
