package cosparse

// Cross-backend equivalence: the sim backend (trace-driven timing
// model) and the native backend (goroutine-parallel host execution)
// share the same generic kernel pass bodies, so their functional
// results must be *identical* — bit-for-bit, even for the
// order-sensitive float32 arithmetic of PR and CF, because the native
// backend partitions work exactly the way the simulated machine does.
// These tests hold that contract for every algorithm, and anchor both
// backends to the independent baseline CSR kernel.

import (
	"context"
	"math"
	"testing"

	"cosparse/internal/baseline"
	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/runtime"
	"cosparse/internal/sim"
)

func backendPair(t *testing.T) (*Engine, *Engine) {
	t.Helper()
	g, err := GeneratePowerLaw(1200, 15000, Weighted, 9)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{Tiles: 4, PEsPerTile: 4}
	simEng, err := New(g, sys, WithBackend(SimBackend))
	if err != nil {
		t.Fatal(err)
	}
	natEng, err := New(g, sys, WithBackend(NativeBackend))
	if err != nil {
		t.Fatal(err)
	}
	return simEng, natEng
}

func checkReports(t *testing.T, simRep, natRep *Report) {
	t.Helper()
	if simRep.Backend != "sim" {
		t.Errorf("sim report backend = %q", simRep.Backend)
	}
	if natRep.Backend != "native" {
		t.Errorf("native report backend = %q", natRep.Backend)
	}
	if simRep.TotalCycles <= 0 {
		t.Errorf("sim report has no cycles")
	}
	if natRep.TotalCycles != 0 {
		t.Errorf("native report claims %d simulated cycles", natRep.TotalCycles)
	}
	if natRep.WallSeconds <= 0 {
		t.Errorf("native report has no wall time")
	}
	if natRep.Memory != nil {
		t.Errorf("native report carries a simulated-memory breakdown")
	}
}

func TestBackendEquivalenceBFS(t *testing.T) {
	simEng, natEng := backendPair(t)
	sres, srep, err := simEng.BFSContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	nres, nrep, err := natEng.BFSContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkReports(t, srep, nrep)
	for v := range sres.Parent {
		if sres.Parent[v] != nres.Parent[v] || sres.Level[v] != nres.Level[v] {
			t.Fatalf("vertex %d: sim parent/level %d/%d, native %d/%d",
				v, sres.Parent[v], sres.Level[v], nres.Parent[v], nres.Level[v])
		}
	}
}

func TestBackendEquivalenceSSSP(t *testing.T) {
	simEng, natEng := backendPair(t)
	sdist, srep, err := simEng.SSSPContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ndist, nrep, err := natEng.SSSPContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	checkReports(t, srep, nrep)
	for v := range sdist {
		if sdist[v] != ndist[v] && !(math.IsInf(float64(sdist[v]), 1) && math.IsInf(float64(ndist[v]), 1)) {
			t.Fatalf("vertex %d: sim distance %g, native %g", v, sdist[v], ndist[v])
		}
	}
}

func TestBackendEquivalencePageRank(t *testing.T) {
	simEng, natEng := backendPair(t)
	spr, srep, err := simEng.PageRankContext(context.Background(), 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	npr, nrep, err := natEng.PageRankContext(context.Background(), 10, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	checkReports(t, srep, nrep)
	for v := range spr {
		// Bit-identical, not merely close: both backends run the same
		// pass bodies over the same partitions in the same reduce order.
		if spr[v] != npr[v] {
			t.Fatalf("vertex %d: sim rank %g, native %g", v, spr[v], npr[v])
		}
	}
}

func TestBackendEquivalenceCF(t *testing.T) {
	simEng, natEng := backendPair(t)
	scf, srep, err := simEng.CFContext(context.Background(), 5, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	ncf, nrep, err := natEng.CFContext(context.Background(), 5, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	checkReports(t, srep, nrep)
	for v := range scf {
		if scf[v] != ncf[v] {
			t.Fatalf("vertex %d: sim factor %g, native %g", v, scf[v], ncf[v])
		}
	}
}

// Forced configurations pin each backend to one kernel per iteration,
// exercising the native IP and OP paths in isolation (the auto
// heuristics differ between backends, so the default runs above may
// take different kernel sequences — which must not matter for values,
// but here we force identical sequences through both code paths).
func TestBackendEquivalenceForcedKernels(t *testing.T) {
	g, err := GeneratePowerLaw(900, 11000, Weighted, 17)
	if err != nil {
		t.Fatal(err)
	}
	sys := System{Tiles: 2, PEsPerTile: 8}
	for _, force := range []struct {
		name string
		opt  Option
	}{
		{"ip", WithSoftware(InnerProduct)},
		{"op", WithSoftware(OuterProduct)},
	} {
		t.Run(force.name, func(t *testing.T) {
			simEng, err := New(g, sys, force.opt, WithBackend(SimBackend))
			if err != nil {
				t.Fatal(err)
			}
			natEng, err := New(g, sys, force.opt, WithBackend(NativeBackend))
			if err != nil {
				t.Fatal(err)
			}
			sdist, _, err := simEng.SSSPContext(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			ndist, _, err := natEng.SSSPContext(context.Background(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for v := range sdist {
				if sdist[v] != ndist[v] && !(math.IsInf(float64(sdist[v]), 1) && math.IsInf(float64(ndist[v]), 1)) {
					t.Fatalf("vertex %d: sim distance %g, native %g", v, sdist[v], ndist[v])
				}
			}
		})
	}
}

// Both backends must also agree with the independent baseline CSR
// kernel (which accumulates in float64, hence the tolerance).
func TestBackendsMatchBaselineSpMV(t *testing.T) {
	m := gen.PowerLaw(1000, 14000, 0.55, gen.UniformWeight, 23)
	f := gen.Frontier(1000, 0.2, 24)
	want := baseline.RunCSRSpMV(m.ToCSR(), f.ToDense(0))
	for _, be := range []exec.Backend{exec.Sim(), exec.Native()} {
		fw, err := runtime.NewFromStore(m, runtime.Options{
			Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 8},
			Backend:  be,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := fw.SpMV(context.Background(), f.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(float64(got[i]-want[i])) > 1e-4*math.Max(math.Abs(float64(want[i])), 1) {
				t.Fatalf("%s backend: y[%d] = %g, baseline %g", be.Name(), i, got[i], want[i])
			}
		}
	}
}

func TestParseBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		err  bool
	}{
		{"", SimBackend, false},
		{"sim", SimBackend, false},
		{" Native ", NativeBackend, false},
		{"fpga", SimBackend, true},
	} {
		got, err := ParseBackend(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseBackend(%q) error = %v, want error %t", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseBackend(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
