package service

// Fused-vs-unbatched throughput (the `make bench-batch` target): 64
// concurrent clients hammer one service with the same-graph native PPR
// workload in two legs — coalescer off, and on with groups of up to
// kernels.LaneBlock (8) lanes, the most a group can carry — each
// repeated benchReps times. Every job runs the same loop and the same native kernel (a
// solo run is a one-lane batch), so the ratio measures what fusing
// lanes amortizes, net of the gather window, against unbatched jobs
// running concurrently on the shared engine, one per worker. Gated
// behind BENCH_BATCH; per-leg median and
// IQR plus host metadata land in BENCH_batch.json at the repo root.
// There is no speedup gate: the run fails only on a failed job or a
// lane whose answer differs from the unbatched run's.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

const benchReps = 5

// quartiles returns the median and interquartile range of xs (linear
// interpolation between order statistics).
func quartiles(xs []float64) (median, iqr float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.5), at(0.75) - at(0.25)
}

// headCommit names the tree the numbers were taken on.
func headCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func TestBenchBatch(t *testing.T) {
	if os.Getenv("BENCH_BATCH") == "" {
		t.Skip("set BENCH_BATCH=1 to run the batching throughput comparison")
	}
	const (
		n       = 1 << 14
		edges   = 16 * n
		jobs    = 256
		clients = 64
		seeds   = 64 // distinct sources, cycled
		iters   = 10
	)

	type laneSummary struct {
		Summary string
		Fused   bool
	}

	const window = 5 * time.Millisecond

	// runSide measures one repetition of one leg on a fresh service;
	// maxLanes 0 turns the coalescer off.
	runSide := func(t *testing.T, maxLanes int) (time.Duration, map[int32]string, int) {
		cfg := Config{Workers: clients, QueueDepth: jobs + 8}
		if maxLanes > 0 {
			cfg.BatchWindow, cfg.BatchMaxLanes = window, maxLanes
		}
		svc, ts := newTestService(t, cfg)
		gid := func() string {
			var info GraphInfo
			code := doJSON(t, http.MethodPost, ts.URL+"/v1/graphs", GraphSpec{
				Kind: "powerlaw", Vertices: n, Edges: edges, Seed: 11,
			}, &info)
			if code != http.StatusCreated {
				t.Fatalf("register bench graph: %d", code)
			}
			return info.ID
		}()

		// submit posts one job and waits for it; goroutine-safe (no
		// t.Fatal off the test goroutine).
		submit := func(src int32) (laneSummary, error) {
			body, _ := json.Marshal(JobRequest{
				GraphID: gid, Algo: "ppr", Source: src, Iterations: iters,
				Backend: "native", TimeoutMs: 240_000,
			})
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				return laneSummary{}, err
			}
			var st JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				return laneSummary{}, err
			}
			if resp.StatusCode != http.StatusAccepted {
				return laneSummary{}, fmt.Errorf("submit: status %d", resp.StatusCode)
			}
			j := svc.sched.Get(st.ID)
			if j == nil {
				return laneSummary{}, fmt.Errorf("job %s vanished", st.ID)
			}
			<-j.Done()
			fin := j.Status()
			if fin.State != JobDone {
				return laneSummary{}, fmt.Errorf("job %s: %s (%s)", st.ID, fin.State, fin.Error)
			}
			return laneSummary{Summary: fin.Result.Summary, Fused: fin.Fused}, nil
		}

		var (
			mu        sync.Mutex
			summaries = make(map[int32]string, seeds)
			fusedJobs int
			firstErr  error
			wg        sync.WaitGroup
		)
		// Warm the engine cache before the storm: 64 simultaneous cold
		// misses would trip the build-pressure limiter, and the bench is
		// about steady-state throughput, not cold-start.
		if _, err := submit(0); err != nil {
			t.Fatalf("warmup: %v", err)
		}
		perClient := jobs / clients
		t0 := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := 0; k < perClient; k++ {
					src := int32((c + k*clients) % seeds)
					ls, err := submit(src)
					mu.Lock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					if prev, ok := summaries[src]; ok && prev != ls.Summary {
						if firstErr == nil {
							firstErr = fmt.Errorf("source %d: summary %q != %q", src, ls.Summary, prev)
						}
					}
					summaries[src] = ls.Summary
					if ls.Fused {
						fusedJobs++
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(t0)
		if firstErr != nil {
			t.Fatal(firstErr)
		}
		return wall, summaries, fusedJobs
	}

	type leg struct {
		Name          string    `json:"name"`
		MaxLanes      int       `json:"max_lanes"` // 0 = coalescer off
		JobsPerSec    []float64 `json:"jobs_per_sec"`
		MedianJobsSec float64   `json:"jobs_per_sec_median"`
		IQRJobsSec    float64   `json:"jobs_per_sec_iqr"`
		FusedJobs     []int     `json:"fused_jobs"`
		VsUnbatched   float64   `json:"median_vs_unbatched"`
	}
	legs := []*leg{
		{Name: "unbatched"},
		{Name: "max_lanes_8", MaxLanes: 8},
	}
	// Repetitions interleave the legs so a slow minute on a shared host
	// lands on both.
	var want map[int32]string
	for rep := 0; rep < benchReps; rep++ {
		for _, l := range legs {
			var (
				wall  time.Duration
				sums  map[int32]string
				fused int
			)
			// A subtest per repetition, so each service is torn down
			// before the next one starts.
			if !t.Run(fmt.Sprintf("%s/rep%d", l.Name, rep), func(t *testing.T) {
				wall, sums, fused = runSide(t, l.MaxLanes)
			}) {
				t.FailNow()
			}
			if l.MaxLanes == 0 && fused != 0 {
				t.Fatalf("unbatched service fused %d jobs", fused)
			}
			if want == nil {
				want = sums
			}
			// Every lane's answer must match the first unbatched run's,
			// source for source.
			for src, w := range want {
				if got := sums[src]; got != w {
					t.Errorf("%s rep %d source %d: %q, unbatched %q", l.Name, rep, src, got, w)
				}
			}
			l.JobsPerSec = append(l.JobsPerSec, jobs/wall.Seconds())
			l.FusedJobs = append(l.FusedJobs, fused)
		}
	}
	for _, l := range legs {
		l.MedianJobsSec, l.IQRJobsSec = quartiles(l.JobsPerSec)
		l.VsUnbatched = l.MedianJobsSec / legs[0].MedianJobsSec
		t.Logf("%-13s %.1f jobs/s median (IQR %.1f, %d reps), %.2fx unbatched, fused jobs %v",
			l.Name, l.MedianJobsSec, l.IQRJobsSec, benchReps, l.VsUnbatched, l.FusedJobs)
	}

	out := struct {
		Graph        string  `json:"graph"`
		Vertices     int     `json:"vertices"`
		Edges        int     `json:"edges"`
		Algo         string  `json:"algo"`
		Iters        int     `json:"iters"`
		Jobs         int     `json:"jobs"`
		Clients      int     `json:"clients"`
		Backend      string  `json:"backend"`
		BatchWindowS float64 `json:"batch_window_s"`
		Reps         int     `json:"reps"`
		NumCPU       int     `json:"num_cpu"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		GoVersion    string  `json:"go_version"`
		Commit       string  `json:"commit"`
		Legs         []*leg  `json:"legs"`
	}{
		Graph: "powerlaw-scale14", Vertices: n, Edges: edges,
		Algo: "ppr", Iters: iters, Jobs: jobs, Clients: clients,
		Backend: "native", BatchWindowS: window.Seconds(), Reps: benchReps,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: headCommit(),
		Legs: legs,
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../../BENCH_batch.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
