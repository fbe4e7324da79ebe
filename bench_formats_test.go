package cosparse

// Storage-format comparison (the `make bench-formats` target): the
// same scale-16 unweighted power-law graph held as baseline CSR and as
// delta-varint compressed DVCSR, measuring what the compression costs
// and buys — resident bytes, native PageRank wall-clock through the
// decode-at-build seam (median of five fresh engines per format), and
// how many graphs one memory budget admits. Gated behind
// BENCH_FORMATS; results land in BENCH_formats.json for trend
// tracking. The run fails if DVCSR compression drops under 1.5x, if
// the native run slows by more than 1.3x, or if the budget does not
// admit at least 1.5x more compressed graphs.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

func TestBenchFormats(t *testing.T) {
	if os.Getenv("BENCH_FORMATS") == "" {
		t.Skip("set BENCH_FORMATS=1 to run the storage-format comparison")
	}
	const (
		scale = 16
		n     = 1 << scale
		edges = 16 * n
		iters = 3
		alpha = 0.15
	)
	// Unweighted: the PR/BFS shape the paper's graphs have, where DVCSR
	// elides the value array entirely.
	g, err := GeneratePowerLaw(n, edges, Unweighted, 16)
	if err != nil {
		t.Fatal(err)
	}
	gc, err := g.InFormat(CSRFormat)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := g.InFormat(DVCSRFormat)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{Tiles: 16, PEsPerTile: 16}

	run := func(g *Graph) (time.Duration, []float32) {
		eng, err := New(g, sys, WithBackend(NativeBackend))
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		pr, _, err := eng.PageRankContext(context.Background(), iters, alpha)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(t0), pr
	}
	// Median of five fresh engines per format, formats interleaved: one
	// PageRank is ~25 ms here, so a single shot is mostly whatever the
	// host was doing.
	const reps = 5
	walls := make([][]time.Duration, 2)
	prs := make([][]float32, 2)
	for r := 0; r < reps; r++ {
		for i, fg := range []*Graph{gc, gd} {
			w, pr := run(fg)
			walls[i] = append(walls[i], w)
			prs[i] = pr
		}
	}
	for i := range walls {
		slices.Sort(walls[i])
	}
	csrWall, dvWall := walls[0][reps/2], walls[1][reps/2]
	csrPR, dvPR := prs[0], prs[1]
	for v := range csrPR {
		if csrPR[v] != dvPR[v] {
			t.Fatalf("vertex %d: pagerank differs csr vs dvcsr (%g vs %g)", v, csrPR[v], dvPR[v])
		}
	}

	ratio := float64(gc.ResidentBytes()) / float64(gd.ResidentBytes())
	slowdown := dvWall.Seconds() / csrWall.Seconds()
	// Admission multiplier: graphs of this shape one budget admits,
	// modeled on the registry's measured per-format accounting (the
	// service test drives the real registry; here the arithmetic is
	// enough and keeps the benchmark self-contained).
	perVertex := int64(n) * 16
	budget := 4 * (gc.ResidentBytes() + perVertex)
	admitted := func(g *Graph) int {
		return int(budget / (g.ResidentBytes() + perVertex))
	}
	admitCSR, admitDVCSR := admitted(gc), admitted(gd)
	admitRatio := float64(admitDVCSR) / float64(admitCSR)

	out := struct {
		Graph       string  `json:"graph"`
		Vertices    int     `json:"vertices"`
		Edges       int     `json:"edges"`
		Algo        string  `json:"algo"`
		Iters       int     `json:"iters"`
		Reps        int     `json:"native_reps"`
		CSRBytes    int64   `json:"csr_bytes"`
		DVCSRBytes  int64   `json:"dvcsr_bytes"`
		Compression float64 `json:"compression_ratio"`
		CSRWallS    float64 `json:"csr_native_wall_s"`
		DVCSRWallS  float64 `json:"dvcsr_native_wall_s"`
		Slowdown    float64 `json:"native_slowdown"`
		BudgetBytes int64   `json:"budget_bytes"`
		AdmitCSR    int     `json:"admitted_csr"`
		AdmitDVCSR  int     `json:"admitted_dvcsr"`
		AdmitRatio  float64 `json:"admitted_ratio"`
		NumCPU      int     `json:"num_cpu"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		GoVersion   string  `json:"go_version"`
		Commit      string  `json:"commit"`
	}{
		Graph:       "powerlaw-scale16",
		Vertices:    n,
		Edges:       edges,
		Algo:        "pr",
		Iters:       iters,
		Reps:        reps,
		CSRBytes:    gc.ResidentBytes(),
		DVCSRBytes:  gd.ResidentBytes(),
		Compression: ratio,
		CSRWallS:    csrWall.Seconds(),
		DVCSRWallS:  dvWall.Seconds(),
		Slowdown:    slowdown,
		BudgetBytes: budget,
		AdmitCSR:    admitCSR,
		AdmitDVCSR:  admitDVCSR,
		AdmitRatio:  admitRatio,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Commit:      headCommit(),
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_formats.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("csr %d B, dvcsr %d B (%.2fx); native PR %v vs %v (%.2fx); budget admits %d vs %d (%.2fx)",
		gc.ResidentBytes(), gd.ResidentBytes(), ratio,
		csrWall, dvWall, slowdown, admitCSR, admitDVCSR, admitRatio)

	if ratio < 1.5 {
		t.Errorf("compression ratio %.2fx (want >= 1.5x)", ratio)
	}
	if slowdown > 1.3 {
		t.Errorf("native slowdown %.2fx under compression (want <= 1.3x)", slowdown)
	}
	if admitRatio < 1.5 {
		t.Errorf("budget admits only %.2fx more compressed graphs (want >= 1.5x)", admitRatio)
	}
}
