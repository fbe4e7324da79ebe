package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cosparse"
)

// runConfig is one run of one workload in this process.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64 // length of the measured window
	Traced   bool
	// Tiny shrinks every graph to at most 1024 vertices and every probe
	// to a few iterations; the tier-1 smoke test uses it.
	Tiny bool
	// DataRoot is where the run makes (and removes) its data directory.
	DataRoot string
	// TracePath is where a traced run writes its spans ("" = nowhere).
	TracePath string
}

// designCheck is one of the properties a workload was built to have
// (ISSUE acceptance: "the traced run confirms the workload design").
type designCheck struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Want  string  `json:"want"`
	OK    bool    `json:"ok"`
}

// runResult is everything one run measured. Metrics holds end-to-end
// and per-layer values alike; emit picks the declared set.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]int     `json:"samples"`
	Checks    []designCheck      `json:"checks,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Meta      hostMeta           `json:"meta"`
}

// env is what a workload sees while it runs.
type env struct {
	cfg     runConfig
	tr      *tracer // nil in an untraced run
	res     *runResult
	dataDir string
	speed   *hostSpeed
}

// sys is the machine geometry every workload uses (the paper's 16x16).
var sys = cosparse.System{Tiles: 16, PEsPerTile: 16}

// set records a metric with the number of samples behind it.
func (e *env) set(name string, v float64, samples int) {
	e.res.Metrics[name] = v
	e.res.Samples[name] = samples
}

func (e *env) note(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.res.Notes = append(e.res.Notes, msg)
	fmt.Fprintln(os.Stderr, "  "+msg)
}

// fail counts a correctness failure outside the window (oracle, probe).
func (e *env) fail(format string, args ...any) {
	e.res.Correct = false
	e.note("INCORRECT: "+format, args...)
}

func (e *env) check(name string, v float64, ok bool, want string) {
	e.res.Checks = append(e.res.Checks, designCheck{Name: name, Value: v, Want: want, OK: ok})
}

// size scales a graph down for the tier-1 smoke test.
func (e *env) size(vertices, edges int) (int, int) {
	if e.cfg.Tiny && vertices > 1024 {
		return 1024, 8192
	}
	return vertices, edges
}

// reps is how often a run repeats a probe or a set-up: n normally, 1
// in the smoke test.
func (e *env) reps(n int) int {
	if e.cfg.Tiny {
		return 1
	}
	return n
}

// repeatSetup times one() at least three times and, while the set-ups
// so far add up to under a second, up to fifteen times, so that the
// median of a set-up of a few milliseconds rests on more than three
// draws. discard drops the previous repetition's product and is not
// timed. It returns the seconds each set-up took, scaled to the host's
// nominal speed by the faster of the reference slices on either side.
func (e *env) repeatSetup(discard func(), one func() error) ([]float64, error) {
	var took []float64
	total := 0.0
	for len(took) < e.reps(3) || (!e.cfg.Tiny && total < 1 && len(took) < 15) {
		discard()
		before := e.speed.sample()
		t0 := time.Now()
		if err := one(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs := time.Since(t0).Seconds()
		total += secs
		took = append(took, secs/(min(before, e.speed.sample())/refNominalMs))
	}
	return took, nil
}

// warmup is how long the warm-up may last once ten jobs have not been
// reached; the window itself is cfg.Seconds.
func (e *env) warmup() time.Duration {
	return time.Duration(min(2, 0.15*e.cfg.Seconds) * float64(time.Second))
}

func (e *env) window() time.Duration {
	return time.Duration(e.cfg.Seconds * float64(time.Second))
}

// runWorkload runs one workload in this process and returns what it
// measured. An error means the harness itself could not run; wrong
// results come back as Correct == false.
func runWorkload(cfg runConfig) (*runResult, error) {
	run, ok := workloadRunners[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", cfg.Seconds)
	}
	if err := os.MkdirAll(cfg.DataRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.DataRoot, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		cfg:     cfg,
		dataDir: dir,
		res: &runResult{
			Workload: cfg.Workload, Traced: cfg.Traced, Correct: true,
			Metrics: map[string]float64{}, Samples: map[string]int{},
			Meta: readHostMeta(cfg.Seed, cfg.Seconds, dir),
		},
	}
	if e.res.Meta.FSType == "tmpfs" {
		e.note("WARNING: data directory %s is on tmpfs: fsync does not reach a disk, so the store.* and svc-* durability numbers are not comparable with a run on a real disk", filepath.Dir(dir))
	}
	refRows := 65536
	if cfg.Tiny {
		refRows = 4096
	}
	e.speed = &hostSpeed{ref: newHostRef(refRows)}
	e.speed.sample() // untimed: first touch
	if cfg.Traced {
		e.tr = newTracer()
	}
	if err := run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	if e.res.Failed > 0 {
		e.res.Correct = false
	}
	// A service window long enough to pass rssMarkJobs has read it there.
	if _, read := e.res.Metrics["rss_peak_mb"]; !read {
		e.set("rss_peak_mb", rssPeakMB(), 1)
	}
	if cfg.Traced && cfg.TracePath != "" {
		if err := e.tr.write(cfg.TracePath, cfg.Workload, cfg.Seed); err != nil {
			return nil, err
		}
		self := worstJobSelfShare(e.tr.spans)
		e.check("trace.worst_job_self_share", self, self < 0.10, "< 0.10")
	}
	return e.res, nil
}

// emit returns the declared metric set of a run — end-to-end for an
// untraced run, per-layer for a traced one — and an error naming any
// declared metric the run did not produce.
func emit(res *runResult) (map[string]metricValue, error) {
	defs := endToEnd
	if res.Traced {
		defs = perLayer
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", res.Workload, d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
