package cosparse

// Storage-format comparison (the `make bench-formats` target): the
// same scale-16 unweighted power-law graph held as baseline CSR, as
// delta-varint compressed DVCSR, and as bitmap-block BBCSR, measuring
// what each compression costs and buys — resident bytes, native
// PageRank wall-clock through the decode-at-build seam (median of five
// fresh engines per format), how many
// graphs one memory budget admits, and (on a smaller sim leg) what
// the decode-PE model charges per format: decode cycles spent vs HBM
// lines saved by streaming the matrix compressed. Gated behind
// BENCH_FORMATS; results land in BENCH_formats.json for trend
// tracking. The run fails if DVCSR compression drops under 1.5x, if
// the native run slows by more than 1.3x, if the budget does not
// admit at least 1.5x more compressed graphs, if enabling decode PEs
// moves any sim timing while disabled runs drift from the CSR
// baseline, or if a >= 1.25x-compressible format fails to cut HBM
// matrix traffic below the uncompressed line count.

import (
	"encoding/json"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"
)

// formatSimRow is one format's decode-PE sim telemetry: cycles with
// the decode PEs off (must be pinned to the CSR baseline) and on,
// plus the decode-cycle vs HBM-lines-saved trade the model records.
type formatSimRow struct {
	Format             string `json:"format"`
	SimCycles          int64  `json:"sim_cycles"`
	SimCyclesDecodePE  int64  `json:"sim_cycles_decode_pe"`
	DecodeCycles       int64  `json:"decode_cycles"`
	HBMReadLines       int64  `json:"hbm_read_lines"`
	HBMCompressedLines int64  `json:"hbm_compressed_lines"`
	HBMSavedLines      int64  `json:"hbm_saved_lines"`
}

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
	gb, err := g.InFormat(BBCSRFormat)
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
		pr, _, err := eng.PageRank(iters, alpha)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(t0), pr
	}
	// Median of five fresh engines per format, formats interleaved: one
	// PageRank is ~25 ms here, so a single shot is mostly whatever the
	// host was doing.
	const reps = 5
	walls := make([][]time.Duration, 3)
	prs := make([][]float32, 3)
	for r := 0; r < reps; r++ {
		for i, fg := range []*Graph{gc, gd, gb} {
			w, pr := run(fg)
			walls[i] = append(walls[i], w)
			prs[i] = pr
		}
	}
	for i := range walls {
		slices.Sort(walls[i])
	}
	csrWall, dvWall, bbWall := walls[0][reps/2], walls[1][reps/2], walls[2][reps/2]
	csrPR, dvPR, bbPR := prs[0], prs[1], prs[2]
	for v := range csrPR {
		if csrPR[v] != dvPR[v] {
			t.Fatalf("vertex %d: pagerank differs csr vs dvcsr (%g vs %g)", v, csrPR[v], dvPR[v])
		}
		if csrPR[v] != bbPR[v] {
			t.Fatalf("vertex %d: pagerank differs csr vs bbcsr (%g vs %g)", v, csrPR[v], bbPR[v])
		}
	}

	ratio := float64(gc.ResidentBytes()) / float64(gd.ResidentBytes())
	bbRatio := float64(gc.ResidentBytes()) / float64(gb.ResidentBytes())
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

	// Decode-PE sim leg on a smaller graph of the same shape (the
	// cycle-accurate model is ~1000x wall-clock of native): per format,
	// sim cycles with the decode PEs off must stay pinned to the CSR
	// baseline, and with them on the model charges decode cycles while
	// re-pricing HBM matrix traffic at compressed line counts.
	const simScale = 13
	sg, err := GeneratePowerLaw(1<<simScale, 16<<simScale, Unweighted, 16)
	if err != nil {
		t.Fatal(err)
	}
	simSys := System{Tiles: 4, PEsPerTile: 8}
	simRun := func(g *Graph, opts ...Option) *Report {
		eng, err := New(g, simSys, append([]Option{WithBackend(SimBackend)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.PageRank(iters, alpha)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	var simRows []formatSimRow
	var csrSimCycles, csrReadLines int64
	for _, format := range []Format{CSRFormat, DVCSRFormat, BBCSRFormat} {
		fg, err := sg.InFormat(format)
		if err != nil {
			t.Fatal(err)
		}
		off := simRun(fg)
		on := simRun(fg, WithDecodePEs())
		row := formatSimRow{
			Format:             format.String(),
			SimCycles:          off.TotalCycles,
			SimCyclesDecodePE:  on.TotalCycles,
			DecodeCycles:       on.Memory.DecodeCycles,
			HBMReadLines:       on.Memory.HBMReadLines,
			HBMCompressedLines: on.Memory.HBMCompressedLines,
			HBMSavedLines:      on.Memory.HBMSavedLines,
		}
		simRows = append(simRows, row)
		if format == CSRFormat {
			csrSimCycles, csrReadLines = off.TotalCycles, off.Memory.HBMReadLines
			if on.TotalCycles != off.TotalCycles || on.Memory.DecodeCycles != 0 {
				t.Errorf("csr: decode-PE flag moved the sim (%d -> %d cycles, %d decode)",
					off.TotalCycles, on.TotalCycles, on.Memory.DecodeCycles)
			}
			continue
		}
		if off.TotalCycles != csrSimCycles {
			t.Errorf("%s: decode-off sim cycles %d drift from csr baseline %d",
				format, off.TotalCycles, csrSimCycles)
		}
		cr := float64(gc.ResidentBytes())
		switch format {
		case DVCSRFormat:
			cr /= float64(gd.ResidentBytes())
		case BBCSRFormat:
			cr /= float64(gb.ResidentBytes())
		}
		if cr >= 1.25 {
			if row.DecodeCycles <= 0 || row.HBMCompressedLines <= 0 {
				t.Errorf("%s: decode-PE run charged no decode work: %+v", format, row)
			}
			if row.HBMReadLines > csrReadLines {
				t.Errorf("%s: compressed-line HBM traffic %d exceeds uncompressed %d at %.2fx compression",
					format, row.HBMReadLines, csrReadLines, cr)
			}
		}
	}

	out := struct {
		Graph       string         `json:"graph"`
		Vertices    int            `json:"vertices"`
		Edges       int            `json:"edges"`
		Algo        string         `json:"algo"`
		Iters       int            `json:"iters"`
		Reps        int            `json:"native_reps"`
		CSRBytes    int64          `json:"csr_bytes"`
		DVCSRBytes  int64          `json:"dvcsr_bytes"`
		BBCSRBytes  int64          `json:"bbcsr_bytes"`
		Compression float64        `json:"compression_ratio"`
		BBCSRRatio  float64        `json:"bbcsr_compression_ratio"`
		CSRWallS    float64        `json:"csr_native_wall_s"`
		DVCSRWallS  float64        `json:"dvcsr_native_wall_s"`
		BBCSRWallS  float64        `json:"bbcsr_native_wall_s"`
		Slowdown    float64        `json:"native_slowdown"`
		BudgetBytes int64          `json:"budget_bytes"`
		AdmitCSR    int            `json:"admitted_csr"`
		AdmitDVCSR  int            `json:"admitted_dvcsr"`
		AdmitRatio  float64        `json:"admitted_ratio"`
		SimGraph    string         `json:"sim_graph"`
		SimRows     []formatSimRow `json:"decode_pe_sim"`
		NumCPU      int            `json:"num_cpu"`
		GOMAXPROCS  int            `json:"gomaxprocs"`
		GoVersion   string         `json:"go_version"`
		Commit      string         `json:"commit"`
	}{
		Graph:       "powerlaw-scale16",
		Vertices:    n,
		Edges:       edges,
		Algo:        "pr",
		Iters:       iters,
		Reps:        reps,
		CSRBytes:    gc.ResidentBytes(),
		DVCSRBytes:  gd.ResidentBytes(),
		BBCSRBytes:  gb.ResidentBytes(),
		Compression: ratio,
		BBCSRRatio:  bbRatio,
		CSRWallS:    csrWall.Seconds(),
		DVCSRWallS:  dvWall.Seconds(),
		BBCSRWallS:  bbWall.Seconds(),
		Slowdown:    slowdown,
		BudgetBytes: budget,
		AdmitCSR:    admitCSR,
		AdmitDVCSR:  admitDVCSR,
		AdmitRatio:  admitRatio,
		SimGraph:    "powerlaw-scale13",
		SimRows:     simRows,
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
	t.Logf("csr %d B, dvcsr %d B (%.2fx), bbcsr %d B (%.2fx); native PR %v vs %v vs %v (%.2fx); budget admits %d vs %d (%.2fx)",
		gc.ResidentBytes(), gd.ResidentBytes(), ratio, gb.ResidentBytes(), bbRatio,
		csrWall, dvWall, bbWall, slowdown, admitCSR, admitDVCSR, admitRatio)
	for _, row := range simRows {
		t.Logf("sim %-5s: %d cycles (decode-PE %d), %d decode cycles, HBM %d lines (%d compressed, %d saved)",
			row.Format, row.SimCycles, row.SimCyclesDecodePE, row.DecodeCycles,
			row.HBMReadLines, row.HBMCompressedLines, row.HBMSavedLines)
	}

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
