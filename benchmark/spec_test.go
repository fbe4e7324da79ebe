package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
)

// benchmarkJSON mirrors the contract's schema of ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness must declare the same workloads and
// metrics: a name on one side only is a metric nobody emits or a
// metric nobody gates.
func TestBenchmarkJSONAgreesWithHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("BENCHMARK.json lacks key %q", k)
		}
		delete(raw, k)
	}
	for k := range raw {
		t.Errorf("BENCHMARK.json has a key the contract does not know: %q", k)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./benchmark"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the harness defaults to %d", b.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		unique(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the contract allows 200", w.Name, len(w.Why))
		}
		if workloadRunners[w.Name] == nil {
			t.Errorf("workload %s is declared but has no run", w.Name)
		}
	}
	if len(workloadRunners) != len(workloads) {
		t.Errorf("%d workloads can run, %d are declared", len(workloadRunners), len(workloads))
	}

	same := func(kind string, js []jsonMetric, defs []metricDef, bounded bool) {
		if len(js) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(js), len(defs))
		}
		for i, d := range defs {
			unique(d.Name)
			j := js[i]
			if j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, j, d)
			}
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case bounded && (j.Bound == nil || *j.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound must be in (0, 0.25] and the same on both sides (harness %g)", d.Name, d.Bound)
			case !bounded && (j.Bound != nil || d.Bound != 0):
				t.Errorf("%s: a per-layer metric has no bound", d.Name)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd, true)
	same("per_layer", b.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("the contract wants a setup_s metric in s, lower is better")
	}
}

// smokeResults runs every workload once, traced, on graphs of at most
// 1024 vertices with a window of under a second; the tests below share
// the results.
var smokeResults = sync.OnceValue(func() map[string]smokeRun {
	out := make(map[string]smokeRun, len(workloads))
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Two at a time: the runs are mostly waiting on their own windows.
	slots := make(chan struct{}, 2)
	for _, w := range workloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slots <- struct{}{}
			defer func() { <-slots }()
			dir, err := os.MkdirTemp("", "benchmark-smoke-")
			if err != nil {
				mu.Lock()
				out[w.Name] = smokeRun{err: err}
				mu.Unlock()
				return
			}
			defer os.RemoveAll(dir)
			trace := filepath.Join(dir, "trace.json")
			res, err := runWorkload(runConfig{
				Workload: w.Name, Seed: 7, Seconds: 0.5, Traced: true, Tiny: true,
				DataRoot: filepath.Join(dir, "data"), TracePath: trace,
			})
			run := smokeRun{res: res, err: err}
			if err == nil {
				run.trace, run.err = os.ReadFile(trace)
			}
			mu.Lock()
			out[w.Name] = run
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
})

type smokeRun struct {
	res   *runResult
	trace []byte
	err   error
}

// Every workload runs, answers correctly, and produces every declared
// metric and nothing else, so the result line always has the keys
// BENCHMARK.json promises.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.Name] = true
	}
	for name, run := range smokeResults() {
		if run.err != nil {
			t.Errorf("%s: %v", name, run.err)
			continue
		}
		res := run.res
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, res.Notes)
		}
		for _, traced := range []bool{false, true} {
			res.Traced = traced
			if _, err := emit(res); err != nil {
				t.Error(err)
			}
		}
		for m := range res.Metrics {
			if !declared[m] {
				t.Errorf("%s emits %s, which BENCHMARK.json does not declare", name, m)
			}
		}
		for _, d := range endToEnd {
			if res.Metrics[d.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s read 0", name, d.Name)
			}
		}
	}
}

// The trace file is one JSON object whose job spans are covered by
// their named children.
func TestSmokeTraceFile(t *testing.T) {
	for name, run := range smokeResults() {
		if run.err != nil {
			continue // reported by the test above
		}
		var tf traceFile
		if err := json.Unmarshal(run.trace, &tf); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
			continue
		}
		jobs := 0
		for _, s := range tf.Spans {
			if s.End < s.Start || s.SelfNs < 0 || s.SelfNs > s.End-s.Start {
				t.Errorf("%s: span %d (%s) has start %d end %d self %d", name, s.ID, s.Name, s.Start, s.End, s.SelfNs)
			}
			if s.Name == "job" {
				jobs++
			}
		}
		if tf.Workload != name || jobs == 0 {
			t.Errorf("%s: trace names workload %q and holds %d job spans", name, tf.Workload, jobs)
		}
		// The full-size traced run checks for under 10 %; jobs of a few
		// hundred microseconds on a loaded test host get more room.
		if share := worstJobSelfShare(tf.Spans); share >= 0.5 {
			t.Errorf("%s: a job span has %.0f%% of its time in no named child", name, 100*share)
		}
	}
}
