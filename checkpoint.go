package cosparse

import (
	"context"

	"cosparse/internal/runtime"
)

// Checkpoint is an opaque snapshot of a run's mid-flight algorithm
// state: the per-vertex value array, the frontier, the decision
// machinery's convergence state, and the report accumulators. A
// checkpoint taken every K iterations (see CheckpointConfig) lets an
// interrupted run resume bit-identically — the resumed run's results,
// cycle totals and decision trace match an uninterrupted one.
//
// The wire form (Encode/DecodeCheckpoint) is a versioned, CRC-guarded
// binary frame; decoding hostile input returns an error, never panics.
type Checkpoint struct {
	cp *runtime.Checkpoint
}

// Algorithm names the run the checkpoint belongs to ("BFS", "SSSP",
// "PR", "CF", "BC", ...). Resume validates it against the
// algorithm being resumed.
func (c *Checkpoint) Algorithm() string { return c.cp.Algo }

// Iteration is the next iteration the resumed run will execute.
func (c *Checkpoint) Iteration() int { return int(c.cp.Iter) }

// Vertices is the vertex count of the graph the checkpoint was taken
// on; resume validates it against the engine's graph.
func (c *Checkpoint) Vertices() int { return int(c.cp.N) }

// Encode serializes the checkpoint to its versioned binary form.
func (c *Checkpoint) Encode() []byte { return runtime.EncodeCheckpoint(c.cp) }

// DecodeCheckpoint parses a checkpoint image produced by Encode,
// validating magic, version, length framing and CRC. Corrupt or
// truncated input yields an error; the decoder never panics.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	cp, err := runtime.DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	return &Checkpoint{cp: cp}, nil
}

// CheckpointConfig arms iteration checkpointing for context-scoped
// runs (the *Context algorithm entry points). It travels on the
// context rather than the Engine because engines are shared and cached
// per graph; checkpointing is a property of one run.
type CheckpointConfig struct {
	// Every takes a snapshot after each Every iterations (BC counts
	// the iterations of both its lanes). Zero disables snapshotting;
	// Resume still works.
	Every int
	// Sink receives each snapshot. An error from Sink aborts the run —
	// callers that prefer to keep computing on persistence failure
	// should swallow the error themselves.
	Sink func(*Checkpoint) error
	// Resume, when non-nil, restarts the run from the checkpoint
	// instead of from the initial state. The checkpoint's algorithm
	// and vertex count must match or the run fails immediately.
	Resume *Checkpoint
}

// ContextWithCheckpoint returns a context that carries cfg to any
// *Context algorithm call made with it. Passing a nil cfg strips any
// inherited checkpoint configuration (useful when composing runs).
func ContextWithCheckpoint(ctx context.Context, cfg *CheckpointConfig) context.Context {
	if cfg == nil {
		return runtime.ContextWithCheckpoint(ctx, nil)
	}
	rc := &runtime.CheckpointConfig{Every: cfg.Every}
	if cfg.Sink != nil {
		sink := cfg.Sink
		rc.Sink = func(cp *runtime.Checkpoint) error {
			return sink(&Checkpoint{cp: cp})
		}
	}
	if cfg.Resume != nil {
		rc.Resume = cfg.Resume.cp
	}
	return runtime.ContextWithCheckpoint(ctx, rc)
}
