package cosparse

// Backend wall-clock comparison (the `make bench-backends` target):
// the same PageRank run on a scale-16 power-law graph through the
// trace-driven sim backend and the goroutine-parallel native backend.
// The make target pins GOMAXPROCS=1 so the sim-vs-native-1p numbers
// are scheduling-stable across hosts; a second native leg at full host
// parallelism measures what the goroutine pool actually buys. Gated
// behind BENCH_BACKENDS because the sim leg simulates every memory
// event of a million-edge graph; results land in BENCH_backends.json
// for trend tracking.

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

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

func TestBenchBackends(t *testing.T) {
	if os.Getenv("BENCH_BACKENDS") == "" {
		t.Skip("set BENCH_BACKENDS=1 to run the backend wall-clock comparison")
	}
	const (
		scale = 16
		n     = 1 << scale
		edges = 16 * n
		iters = 3
		alpha = 0.15
	)
	g, err := GeneratePowerLaw(n, edges, Weighted, 16)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{Tiles: 16, PEsPerTile: 16}

	run := func(b Backend) time.Duration {
		eng, err := New(g, sys, WithBackend(b))
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		if _, _, err := eng.PageRank(iters, alpha); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}

	// Pinned legs at the environment's GOMAXPROCS (1 under make).
	pinned := runtime.GOMAXPROCS(0)
	simWall := run(SimBackend)
	nat1p := run(NativeBackend)

	// Full-parallelism native leg on every host core.
	mp := runtime.NumCPU()
	runtime.GOMAXPROCS(mp)
	natMP := run(NativeBackend)
	runtime.GOMAXPROCS(pinned)

	speedup := simWall.Seconds() / natMP.Seconds()
	scaling := nat1p.Seconds() / natMP.Seconds()

	out := struct {
		Graph        string  `json:"graph"`
		Vertices     int     `json:"vertices"`
		Edges        int     `json:"edges"`
		Algo         string  `json:"algo"`
		Iters        int     `json:"iters"`
		GOMAXPROCS   int     `json:"gomaxprocs"`
		SimWallS     float64 `json:"sim_wall_s"`
		NativeWall1P float64 `json:"native_wall_1p_s"`
		GOMAXPROCSMP int     `json:"gomaxprocs_mp"`
		NativeWallMP float64 `json:"native_wall_mp_s"`
		Speedup      float64 `json:"speedup"`
		Scaling      float64 `json:"native_scaling"`
		NumCPU       int     `json:"num_cpu"`
		GoVersion    string  `json:"go_version"`
		Commit       string  `json:"commit"`
	}{
		Graph:        "powerlaw-scale16",
		Vertices:     n,
		Edges:        edges,
		Algo:         "pr",
		Iters:        iters,
		GOMAXPROCS:   pinned,
		SimWallS:     simWall.Seconds(),
		NativeWall1P: nat1p.Seconds(),
		GOMAXPROCSMP: mp,
		NativeWallMP: natMP.Seconds(),
		Speedup:      speedup,
		Scaling:      scaling,
		NumCPU:       mp,
		GoVersion:    runtime.Version(),
		Commit:       headCommit(),
	}
	writeBenchJSON(t, "BENCH_backends.json", out)
	t.Logf("sim %v, native %v (%d procs) / %v (%d procs), speedup %.1fx, native scaling %.1fx",
		simWall, nat1p, pinned, natMP, mp, speedup, scaling)

	if speedup < 10 {
		t.Errorf("native backend only %.1fx faster than sim (want >= 10x)", speedup)
	}
}
