package bench

import (
	"context"
	"errors"
	"os"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"cosparse/internal/baseline"
	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

// The bench tests run every figure at ScaleTiny (the three longest at
// figureScale) and assert the qualitative shapes the paper reports.
// Magnitudes are asserted only loosely — tiny-scale runs trade fidelity
// for speed; the committed quantitative results in EXPERIMENTS.md come
// from ScaleSmall.

// figureScale is where the three long sweeps run: ScaleTiny under
// BENCH_FIGURES (set by `make regress`), the smallest scale at which
// their shapes still hold otherwise.
func figureScale() Scale {
	if os.Getenv("BENCH_FIGURES") != "" {
		return ScaleTiny
	}
	return ScaleMicro
}

func TestScaleDivisors(t *testing.T) {
	if ScaleFull.Div() != 1 || ScaleSmall.Div() != 16 || ScaleTiny.Div() != 64 {
		t.Fatal("scale divisors wrong")
	}
	if ScaleMicro.EdgeBudget() >= ScaleTiny.EdgeBudget() || ScaleTiny.EdgeBudget() >= ScaleSmall.EdgeBudget() {
		t.Fatal("edge budgets not ordered")
	}
	p := ScaleTiny.Params()
	if p.L1BankBytes >= sim.DefaultParams().L1BankBytes {
		t.Fatal("tiny scale must shrink on-chip memories")
	}
	if p.L1BankBytes < p.BlockBytes*p.L1Assoc {
		t.Fatal("scaled L1 bank below one set")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.AddRow("1", "2")
	s := tbl.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// failAfter accepts n bytes, then fails.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k := f.n
		f.n = 0
		return k, errors.New("device full")
	}
	f.n -= len(p)
	return len(p), nil
}

// Fprint must report a writer that fails, wherever in the table it
// runs out of room.
func TestTableFprintReportsWriteError(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.AddRow("1", "2")
	full := len(tbl.String())
	for _, n := range []int{0, 5, full - 1} {
		if err := tbl.Fprint(&failAfter{n: n}); err == nil || err.Error() != "device full" {
			t.Fatalf("writer failing after %d of %d bytes: Fprint = %v, want the write error", n, full, err)
		}
	}
	if err := tbl.Fprint(&failAfter{n: full}); err != nil {
		t.Fatalf("writer with room for the whole table: Fprint = %v", err)
	}
}

func TestTableIListsAllAlgorithms(t *testing.T) {
	s := TableI().String()
	for _, algo := range []string{"SpMV", "BFS", "SSSP", "PR", "CF"} {
		if !strings.Contains(s, algo) {
			t.Fatalf("Table I missing %s", algo)
		}
	}
}

func TestTableIIEchoesParams(t *testing.T) {
	s := TableII().String()
	for _, want := range []string{"1-issue", "stride prefetcher", "HBM2", "pseudo-channels"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Table II missing %q", want)
		}
	}
}

func TestTableIIIListsSuite(t *testing.T) {
	s := TableIII(ScaleTiny).String()
	for _, g := range []string{"livejournal", "pokec", "youtube", "twitter", "vsp"} {
		if !strings.Contains(s, g) {
			t.Fatalf("Table III missing %s", g)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, tbl := Fig4(ScaleTiny)
	if len(tbl.Rows) != len(res.Matrices)*len(res.Systems) {
		t.Fatalf("table rows %d", len(tbl.Rows))
	}
	for _, m := range res.Matrices {
		for _, g := range res.Systems {
			lo := res.Value[CellKey{m.Name, g.String(), 0.0025}]
			hi := res.Value[CellKey{m.Name, g.String(), 0.04}]
			if lo <= hi {
				t.Errorf("%s %s: OP advantage must shrink with density (%.2f -> %.2f)", m.Name, g, lo, hi)
			}
			if lo <= 1 {
				t.Errorf("%s %s: OP must win at density 0.0025 (got %.2f)", m.Name, g, lo)
			}
			// At 0.04 the two sides are near parity for 8-PE tiles in
			// the paper too; IP must clearly win for wider tiles.
			if hi >= 1.6 {
				t.Errorf("%s %s: OP still winning clearly at density 0.04 (%.2f)", m.Name, g, hi)
			}
			if g.PEsPerTile >= 16 && hi >= 1 {
				t.Errorf("%s %s: IP must win at density 0.04 (got %.2f)", m.Name, g, hi)
			}
		}
	}
	// The crossover density must not increase with PEs per tile (paper
	// takeaway: ~2% at 8 PEs -> ~0.5% at 32). Compare per matrix.
	for _, m := range res.Matrices {
		c8 := res.Crossover(m.Name, "4x8")
		c32 := res.Crossover(m.Name, "4x32")
		if c32 > c8 {
			t.Errorf("%s: crossover grew with PEs/tile: %g @4x8 vs %g @4x32", m.Name, c8, c32)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, _ := Fig5(ScaleTiny)
	// SCS's relative position must improve with vector density for most
	// series (the paper's headline trend) — at tiny scale individual
	// cells are noisy, so assert the aggregate.
	improved := 0
	total := 0
	for _, m := range res.Matrices {
		for _, g := range res.Systems {
			lo := res.Value[CellKey{m.Name, g.String(), 0.0025}]
			hi := res.Value[CellKey{m.Name, g.String(), 0.04}]
			total++
			if hi > lo {
				improved++
			}
		}
	}
	if improved*3 < total*2 {
		t.Errorf("SCS gain grew with density in only %d/%d series", improved, total)
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, _ := Fig6(ScaleTiny)
	improved := 0
	total := 0
	for _, m := range res.Matrices {
		for _, g := range res.Systems {
			lo := res.Value[CellKey{m.Name, g.String(), 0.0025}]
			hi := res.Value[CellKey{m.Name, g.String(), 0.04}]
			total++
			if hi > lo {
				improved++
			}
		}
	}
	if improved*3 < total*2 {
		t.Errorf("PS gain grew with density in only %d/%d series", improved, total)
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, tbl := Fig7(ScaleTiny)
	if len(res.IP) == 0 || len(res.OP) == 0 {
		t.Fatal("empty panels")
	}
	if len(tbl.Rows) != len(res.IP)+len(res.OP) {
		t.Fatalf("table rows %d", len(tbl.Rows))
	}
	// Balancing must help IP (paper: 7-30% improvement) in aggregate.
	helped, total := 0, 0
	for _, c := range res.IP {
		if c.Balancing != kernels.BalanceNNZ {
			continue
		}
		base, ok := res.Get(true, c.Matrix, c.Config, kernels.BalanceRows)
		if !ok {
			t.Fatal("missing unbalanced counterpart")
		}
		total++
		if c.Normalized < base.Normalized {
			helped++
		}
	}
	if helped < total*3/4 {
		t.Errorf("balancing helped IP in only %d/%d cases", helped, total)
	}
}

func TestFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, _ := Fig8(ScaleTiny)
	if len(res.Points) != len(fig8Graphs)*len(fig8Densities) {
		t.Fatalf("points %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.CoSPARSEsec <= 0 || p.CPUsec <= 0 || p.GPUsec <= 0 {
			t.Fatalf("non-positive time: %+v", p)
		}
		// The GPU must lose to the CPU on irregular SpMV (paper §IV-C1).
		if p.GPUsec <= p.CPUsec {
			t.Errorf("%s d=%g: GPU (%.3g) beat CPU (%.3g)", p.Graph, p.Density, p.GPUsec, p.CPUsec)
		}
		// CoSPARSE's energy advantage must be large (orders of magnitude).
		if p.EnergyGainCPU() < 5 {
			t.Errorf("%s d=%g: energy gain vs CPU only %.1f", p.Graph, p.Density, p.EnergyGainCPU())
		}
	}
	// Gains must grow as vectors sparsify (per graph: density 0.001 beats 1.0).
	for _, g := range fig8Graphs {
		var sparse, dense float64
		for _, p := range res.Points {
			if p.Graph != g {
				continue
			}
			if p.Density == 0.001 {
				sparse = p.SpeedupCPU()
			}
			if p.Density == 1.0 {
				dense = p.SpeedupCPU()
			}
		}
		if sparse <= dense {
			t.Errorf("%s: speedup did not grow with sparsity (%.2f @0.001 vs %.2f @1.0)", g, sparse, dense)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, _ := Fig9(figureScale())
	if len(res.Rows) < 5 {
		t.Fatalf("only %d iterations", len(res.Rows))
	}
	// The density must rise then fall (the paper's frontier wave).
	peak := 0
	for i, r := range res.Rows {
		if r.Density > res.Rows[peak].Density {
			peak = i
		}
	}
	if peak == 0 || peak == len(res.Rows)-1 {
		t.Errorf("frontier density has no interior peak (peak at %d of %d)", peak, len(res.Rows))
	}
	// OP must win the sparse edges, IP the dense middle.
	first, last, mid := res.Rows[0], res.Rows[len(res.Rows)-1], res.Rows[peak]
	if !strings.HasPrefix(first.Best, "OP") || !strings.HasPrefix(last.Best, "OP") {
		t.Errorf("sparse iterations not won by OP: first=%s last=%s", first.Best, last.Best)
	}
	if !strings.HasPrefix(mid.Best, "IP") {
		t.Errorf("densest iteration not won by IP: %s", mid.Best)
	}
	// Auto reconfiguration must beat the static IP/SC baseline.
	if res.NetSpeedup <= 1.0 {
		t.Errorf("net speedup %.2f, want > 1 (paper: 1.51)", res.NetSpeedup)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, _ := Fig10(figureScale())
	want := 0
	for _, wl := range fig10Workloads {
		want += len(wl.Graphs)
	}
	if len(res.Points) != want {
		t.Fatalf("points %d, want %d", len(res.Points), want)
	}
	for _, p := range res.Points {
		if p.CoSPARSEsec <= 0 || p.LigraSec <= 0 {
			t.Fatalf("non-positive time: %+v", p)
		}
		// The energy story must be overwhelming (paper: avg 404×) even
		// where raw speed is comparable.
		if p.EnergyGain() < 3 {
			t.Errorf("%s/%s: energy gain %.1f too small", p.Algo, p.Graph, p.EnergyGain())
		}
	}
	if res.GeomeanEnergyGain < 10 {
		t.Errorf("geomean energy gain %.1f, paper reports 404x", res.GeomeanEnergyGain)
	}
}

// TestCoSPARSEMatchesCSRBaseline cross-checks the runtime's SpMV result
// against the baseline CSR kernel on the same mid-density frontier.
func TestCoSPARSEMatchesCSRBaseline(t *testing.T) {
	m := fig7MatrixOf(ScaleTiny, 0)
	f := gen.Frontier(m.R, 0.1, 77)
	fw, err := runtime.NewFromStore(m, runtime.Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := fw.SpMV(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.RunCSRSpMV(m.ToCSR(), f.ToDense(0))
	for i := range want {
		d := float64(got[i] - want[i])
		if d > 1e-3 || d < -1e-3 {
			t.Fatalf("row %d: cosparse %g, csr %g", i, got[i], want[i])
		}
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "b"}, Notes: []string{"n"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("3", "4")

	var jsonOut strings.Builder
	if err := tbl.WriteJSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"Title": "T"`, `"a"`, `"4"`} {
		if !strings.Contains(jsonOut.String(), want) {
			t.Fatalf("JSON missing %s:\n%s", want, jsonOut.String())
		}
	}
}

func TestScalingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, tbl := ScalingStudy(ScaleTiny)
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Doubling the tiles must speed OP up substantially (paper: ~1.8-2x)...
	if res.SpeedupPC < 1.2 || res.SpeedupPC > 2.6 {
		t.Errorf("PC scaling %.2f outside a plausible doubling range", res.SpeedupPC)
	}
	if res.SpeedupPS < 1.2 || res.SpeedupPS > 2.6 {
		t.Errorf("PS scaling %.2f outside a plausible doubling range", res.SpeedupPS)
	}
	// ...and PS must scale at least as well as PC (the paper's 1.96 vs 1.80).
	if res.SpeedupPS < res.SpeedupPC*0.97 {
		t.Errorf("PS scaling %.2f clearly below PC %.2f; paper has PS ahead", res.SpeedupPS, res.SpeedupPC)
	}
}

func TestAutoVsStatic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep")
	}
	res, tbl := AutoVsStatic(figureScale())
	if len(res.Rows) != 4 || len(tbl.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		// Auto must beat the no-reconfiguration baseline...
		if r.SpeedupVsIPSC() <= 1.0 {
			t.Errorf("%s/%s: auto (%d) not faster than IP/SC (%d)",
				r.Algo, r.Graph, r.AutoCycles, r.Static["IP/SC"])
		}
		// ...and stay close to (or beyond) the best static pick; a
		// fixed configuration cannot adapt across the frontier wave, so
		// auto should be at worst modestly behind the oracle.
		if r.SpeedupVsBest() < 0.8 {
			t.Errorf("%s/%s: auto more than 20%% behind the best static config", r.Algo, r.Graph)
		}
	}
	if res.MaxSpeedup < 1.1 {
		t.Errorf("max speedup %.2f; paper reports up to 2.0x", res.MaxSpeedup)
	}
}

func TestParallelCellsCoversAllIndices(t *testing.T) {
	old := goruntime.GOMAXPROCS(8) // force the worker-pool path
	defer goruntime.GOMAXPROCS(old)
	var mu sync.Mutex
	seen := make(map[int]int)
	parallelCells(257, func(i int) {
		mu.Lock()
		seen[i]++
		mu.Unlock()
	})
	if len(seen) != 257 {
		t.Fatalf("visited %d indices, want 257", len(seen))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
	// Zero and single-element cases must not hang.
	parallelCells(0, func(int) { t.Fatal("called for n=0") })
	ran := false
	parallelCells(1, func(int) { ran = true })
	if !ran {
		t.Fatal("n=1 not executed")
	}
}
