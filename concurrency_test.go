package cosparse

import (
	"context"
	"math"
	"sync"
	"testing"
)

// concurrentRun is one algorithm call on a shared engine, returning its
// answer flattened to float32 and its report.
type concurrentRun struct {
	name string
	run  func(e *Engine) ([]float32, *Report, error)
}

var concurrentRuns = []concurrentRun{
	// Betweenness first: its backward sweep builds the engine's reversed
	// graph on first use, so the copies below build it under contention.
	{"BC", func(e *Engine) ([]float32, *Report, error) { return e.BetweennessContext(context.Background(), 3) }},
	{"BFS", func(e *Engine) ([]float32, *Report, error) {
		res, rep, err := e.BFSContext(context.Background(), 0)
		if err != nil {
			return nil, rep, err
		}
		out := make([]float32, 0, 2*len(res.Level))
		for v := range res.Level {
			out = append(out, float32(res.Level[v]), float32(res.Parent[v]))
		}
		return out, rep, nil
	}},
	{"SSSP", func(e *Engine) ([]float32, *Report, error) { return e.SSSPContext(context.Background(), 1) }},
	{"PR", func(e *Engine) ([]float32, *Report, error) { return e.PageRankContext(context.Background(), 6, 0.15) }},
	{"PPR", func(e *Engine) ([]float32, *Report, error) {
		return e.PersonalizedPageRankContext(context.Background(), 5, 6, 0.15)
	}},
	{"CF", func(e *Engine) ([]float32, *Report, error) { return e.CFContext(context.Background(), 4, 0.01, 0.05) }},
	{"SpMV", func(e *Engine) ([]float32, *Report, error) {
		return e.SpMVContext(context.Background(), []int32{0, 7, 42, 99}, []float32{1, 0.5, 2, 0.25})
	}},
	{"CC", func(e *Engine) ([]float32, *Report, error) {
		labels, rep, err := e.ConnectedComponentsContext(context.Background())
		out := make([]float32, len(labels))
		for v, l := range labels {
			out[v] = float32(l)
		}
		return out, rep, err
	}},
}

// TestEngineConcurrentRunsMatchSolo: an Engine is safe for concurrent
// use. Two copies of eight mixed algorithms start at once on one fresh
// engine per backend, and every answer must be bit-identical to the
// same call made alone on another engine, with the same iteration
// count. Run under -race (make regress), it also proves the runs share
// no unsynchronised state — including the reversed graph Betweenness
// builds lazily.
func TestEngineConcurrentRunsMatchSolo(t *testing.T) {
	g, err := GeneratePowerLaw(400, 3200, Weighted, 23)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{Tiles: 2, PEsPerTile: 4}
	for _, b := range []Backend{SimBackend, NativeBackend} {
		t.Run(b.String(), func(t *testing.T) {
			solo, err := New(g, sys, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float32, len(concurrentRuns))
			wantIters := make([]int, len(concurrentRuns))
			for i, r := range concurrentRuns {
				vals, rep, err := r.run(solo)
				if err != nil {
					t.Fatalf("%s solo: %v", r.name, err)
				}
				want[i], wantIters[i] = vals, rep.TotalIterations
			}

			shared, err := New(g, sys, WithBackend(b))
			if err != nil {
				t.Fatal(err)
			}
			const copies = 2
			got := make([][]float32, copies*len(concurrentRuns))
			iters := make([]int, len(got))
			errs := make([]error, len(got))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					var rep *Report
					got[i], rep, errs[i] = concurrentRuns[i%len(concurrentRuns)].run(shared)
					if rep != nil {
						iters[i] = rep.TotalIterations
					}
				}(i)
			}
			close(start)
			wg.Wait()

			for i := range got {
				k := i % len(concurrentRuns)
				name := concurrentRuns[k].name
				if errs[i] != nil {
					t.Fatalf("%s (copy %d): %v", name, i/len(concurrentRuns), errs[i])
				}
				if iters[i] != wantIters[k] {
					t.Errorf("%s (copy %d): %d iterations, solo ran %d", name, i/len(concurrentRuns), iters[i], wantIters[k])
				}
				if len(got[i]) != len(want[k]) {
					t.Fatalf("%s: %d values, solo has %d", name, len(got[i]), len(want[k]))
				}
				for v := range want[k] {
					if math.Float32bits(got[i][v]) != math.Float32bits(want[k][v]) {
						t.Fatalf("%s (copy %d): value %d = %v concurrently, %v solo", name, i/len(concurrentRuns), v, got[i][v], want[k][v])
					}
				}
			}
		})
	}
}
