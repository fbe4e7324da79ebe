// Package fault is a deterministic, seed-driven fault-injection layer
// for the cosparsed service stack. Production code calls Check at named
// injection points (graph build, engine build, job run, per-iteration
// in the SpMV driver, HTTP handling); an armed Injector turns those
// calls into injected errors, panics, or artificial latency, while a
// nil or unarmed Injector makes every Check a no-op.
//
// Two properties are contractual:
//
//   - Zero cost when disarmed. Check on a nil *Injector, or on an
//     injector with no armed points, returns immediately without
//     allocating; existing behavior, tests and benchmarks are
//     unaffected.
//
//   - Determinism. The decision for the k-th Check at a point is a pure
//     function of (seed, point, k): each point keeps its own call
//     counter and derives per-call uniforms with splitmix64, so the
//     fault sequence at every point is identical across runs with the
//     same seed, independent of how calls at *other* points interleave.
//     (Which goroutine observes the k-th call still depends on
//     scheduling; the sequence of injected faults per point does not.)
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site wired into the service stack.
type Point string

const (
	// GraphBuild covers Registry.Register's graph materialization.
	GraphBuild Point = "registry.graph_build"
	// EngineBuild covers Registry.Engine's prepared-engine construction.
	EngineBuild Point = "registry.engine_build"
	// JobRun covers the top of Service.runJob on a worker goroutine.
	JobRun Point = "scheduler.job_run"
	// Iteration covers every iteration boundary of the SpMV driver
	// (internal/runtime), via the engine's iteration hook.
	Iteration Point = "runtime.iteration"
	// HTTPHandler covers the HTTP middleware, before routing.
	HTTPHandler Point = "http.handler"
	// JournalAppend covers every journal record write in internal/store,
	// before the frame reaches the segment file.
	JournalAppend Point = "store.journal_append"
	// StoreSync covers the fsync that commits a journal append or
	// snapshot rename — the narrowest window for torn-write chaos.
	StoreSync Point = "store.fsync"
	// SnapshotWrite covers checkpoint snapshot persistence (tmp write +
	// atomic rename).
	SnapshotWrite Point = "store.snapshot_write"
	// RecoverReplay covers startup journal replay, per record.
	RecoverReplay Point = "store.recover_replay"
	// ReplSend covers the leader before it serves a replication
	// request (log poll, resync listing, snapshot). An injected error
	// answers 503, a simulated network failure the follower retries.
	ReplSend Point = "repl.send"
	// ReplApply covers the follower's application of a replicated
	// batch, before any record reaches its journal.
	ReplApply Point = "repl.apply"
)

// Points lists every injection point the service wires up, in a fixed
// order (used by spec validation and diagnostics).
func Points() []Point {
	return []Point{GraphBuild, EngineBuild, JobRun, Iteration, HTTPHandler,
		JournalAppend, StoreSync, SnapshotWrite, RecoverReplay,
		ReplSend, ReplApply}
}

// Rule arms one point. Rates are probabilities in [0, 1] evaluated
// independently per Check from the injector's deterministic stream.
type Rule struct {
	// ErrRate is the probability of returning an injected *Error.
	ErrRate float64
	// PanicRate is the probability of panicking with a *PanicValue.
	// Panics win over errors when both fire on the same call.
	PanicRate float64
	// LatencyRate is the probability of sleeping Latency before the
	// fault decision (latency alone is not counted as a fault).
	LatencyRate float64
	Latency     time.Duration
	// MaxFaults, when positive, caps the number of injected errors plus
	// panics at this point; once reached, only latency still applies.
	MaxFaults int64
}

// armed is one point's live state. The rule is immutable after Arm;
// the counters are the only mutable fields.
type armed struct {
	rule   Rule
	seq    atomic.Uint64 // Check calls seen at this point
	faults atomic.Int64  // injected errors + panics
}

// Injector holds the armed rules. The zero value is not usable; use
// New. A nil *Injector is valid and permanently disarmed.
type Injector struct {
	seed   uint64
	armedN atomic.Int32
	mu     sync.RWMutex
	points map[Point]*armed
}

// New returns a disarmed injector whose fault streams derive from seed.
func New(seed uint64) *Injector {
	return &Injector{seed: seed, points: make(map[Point]*armed)}
}

// Arm installs (or replaces) the rule for a point and returns the
// injector for chaining. Re-arming resets the point's call counter.
func (in *Injector) Arm(p Point, r Rule) *Injector {
	in.mu.Lock()
	if _, ok := in.points[p]; !ok {
		in.armedN.Add(1)
	}
	in.points[p] = &armed{rule: r}
	in.mu.Unlock()
	return in
}

// DisarmAll removes every rule; Check becomes a no-op again.
func (in *Injector) DisarmAll() {
	in.mu.Lock()
	for p := range in.points {
		delete(in.points, p)
	}
	in.armedN.Store(0)
	in.mu.Unlock()
}

// Armed reports whether the point has a rule installed. Nil-safe.
func (in *Injector) Armed(p Point) bool {
	if in == nil || in.armedN.Load() == 0 {
		return false
	}
	in.mu.RLock()
	_, ok := in.points[p]
	in.mu.RUnlock()
	return ok
}

// Calls returns the number of Check calls seen at the point. Nil-safe.
func (in *Injector) Calls(p Point) uint64 {
	if a := in.lookup(p); a != nil {
		return a.seq.Load()
	}
	return 0
}

// Faults returns the number of injected errors plus panics at the
// point. Nil-safe.
func (in *Injector) Faults(p Point) int64 {
	if a := in.lookup(p); a != nil {
		return a.faults.Load()
	}
	return 0
}

func (in *Injector) lookup(p Point) *armed {
	if in == nil || in.armedN.Load() == 0 {
		return nil
	}
	in.mu.RLock()
	a := in.points[p]
	in.mu.RUnlock()
	return a
}

// Check is the injection site. It may sleep (latency), panic with a
// *PanicValue, or return a *Error, per the point's rule and the
// deterministic stream; otherwise it returns nil. Nil-safe and free
// when the point is disarmed.
func (in *Injector) Check(p Point) error {
	a := in.lookup(p)
	if a == nil {
		return nil
	}
	k := a.seq.Add(1)
	r := a.rule
	// Three independent uniforms for the k-th call, each a pure
	// function of (seed, point, k, salt).
	base := in.seed ^ Hash64(string(p)) ^ (k * 0x9e3779b97f4a7c15)
	if r.LatencyRate > 0 && Unit(Mix64(base+1)) < r.LatencyRate {
		time.Sleep(r.Latency)
	}
	budget := func() bool {
		if r.MaxFaults > 0 && a.faults.Load() >= r.MaxFaults {
			return false
		}
		a.faults.Add(1)
		return true
	}
	if r.PanicRate > 0 && Unit(Mix64(base+2)) < r.PanicRate && budget() {
		panic(&PanicValue{Point: p, Seq: k})
	}
	if r.ErrRate > 0 && Unit(Mix64(base+3)) < r.ErrRate && budget() {
		return &Error{Point: p, Seq: k}
	}
	return nil
}

// Error is an injected fault, carrying the point and call sequence
// number that produced it (so a log line pins down the exact injection).
type Error struct {
	Point Point
	Seq   uint64
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected error at %s (call %d)", e.Point, e.Seq)
}

// PanicValue is what injected panics throw, so recovery paths and
// tests can tell an injected panic from a real bug.
type PanicValue struct {
	Point Point
	Seq   uint64
}

// String formats the panic value for recorded stacks and logs.
func (p *PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (call %d)", p.Point, p.Seq)
}

// Mix64 is the splitmix64 finalizer: a cheap, well-distributed
// uint64 → uint64 mix, the basis of every deterministic stream here.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash64 is FNV-1a over s, used to give each point its own stream.
func Hash64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Unit maps a mixed uint64 to a uniform float64 in [0, 1).
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
