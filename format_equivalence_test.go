package cosparse

// Cross-format equivalence: a graph stored compressed (DVCSR) must be
// indistinguishable from its CSR twin everywhere above the storage
// seam. Engine builds decode compressed rows into the same per-PE
// operand stream, so every algorithm's values are bit-identical across
// formats on both backends — and the sim backend's cycle counts match
// exactly too, because the partitions (and hence the traces) are the
// same bytes.

import (
	"context"
	"math"
	"testing"
)

// formatQuad builds one engine per format x backend combination over
// the same logical graph.
func formatQuad(t *testing.T, mode ValueMode) map[string]*Engine {
	t.Helper()
	g, err := GeneratePowerLaw(1100, 14000, mode, 31)
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
	if gc.Format() != "csr" || gd.Format() != "dvcsr" {
		t.Fatalf("formats: %s / %s", gc.Format(), gd.Format())
	}
	if gd.ResidentBytes() >= gc.ResidentBytes() {
		t.Fatalf("dvcsr %d bytes not smaller than csr %d", gd.ResidentBytes(), gc.ResidentBytes())
	}
	sys := System{Tiles: 4, PEsPerTile: 4}
	engines := map[string]*Engine{}
	for _, fg := range []struct {
		name string
		g    *Graph
	}{{"csr", gc}, {"dvcsr", gd}} {
		for _, be := range []Backend{SimBackend, NativeBackend} {
			eng, err := New(fg.g, sys, WithBackend(be))
			if err != nil {
				t.Fatal(err)
			}
			engines[fg.name+"/"+be.String()] = eng
		}
	}
	return engines
}

// run executes one algorithm on one engine and returns its value
// vector plus the report.
type formatAlgo struct {
	name string
	mode ValueMode
	run  func(e *Engine) ([]float32, *Report, error)
}

func formatAlgos() []formatAlgo {
	return []formatAlgo{
		{"bfs", Unweighted, func(e *Engine) ([]float32, *Report, error) {
			res, rep, err := e.BFSContext(context.Background(), 0)
			if err != nil {
				return nil, nil, err
			}
			v := make([]float32, len(res.Parent))
			for i := range res.Parent {
				v[i] = float32(res.Parent[i])*1e4 + float32(res.Level[i])
			}
			return v, rep, nil
		}},
		{"sssp", Weighted, func(e *Engine) ([]float32, *Report, error) {
			return e.SSSPContext(context.Background(), 0)
		}},
		{"pagerank", Unweighted, func(e *Engine) ([]float32, *Report, error) {
			return e.PageRankContext(context.Background(), 10, 0.15)
		}},
		{"ppr", Unweighted, func(e *Engine) ([]float32, *Report, error) {
			return e.PersonalizedPageRankContext(context.Background(), 3, 10, 0.15)
		}},
		{"cf", Weighted, func(e *Engine) ([]float32, *Report, error) {
			return e.CFContext(context.Background(), 5, 0.05, 0.01)
		}},
		{"bc", Unweighted, func(e *Engine) ([]float32, *Report, error) {
			return e.BetweennessContext(context.Background(), 0)
		}},
	}
}

// TestFormatEquivalence holds the seam contract for all six algorithms
// on both backends: values bit-identical between csr and dvcsr storage,
// and identical simulated cycle counts (the compressed store decodes
// into the same partitions, so the timing model sees the same machine).
func TestFormatEquivalence(t *testing.T) {
	byMode := map[ValueMode]map[string]*Engine{}
	for _, a := range formatAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			engines, ok := byMode[a.mode]
			if !ok {
				engines = formatQuad(t, a.mode)
				byMode[a.mode] = engines
			}
			for _, be := range []string{"sim", "native"} {
				ref, refRep, err := a.run(engines["csr/"+be])
				if err != nil {
					t.Fatal(err)
				}
				got, gotRep, err := a.run(engines["dvcsr/"+be])
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(ref) {
					t.Fatalf("%s: length %d vs %d", be, len(got), len(ref))
				}
				for v := range ref {
					same := got[v] == ref[v] ||
						(math.IsInf(float64(got[v]), 1) && math.IsInf(float64(ref[v]), 1))
					if !same {
						t.Fatalf("%s: vertex %d differs across formats: csr %g, dvcsr %g",
							be, v, ref[v], got[v])
					}
				}
				if be == "sim" && gotRep.TotalCycles != refRep.TotalCycles {
					t.Fatalf("sim cycles differ across formats: csr %d, dvcsr %d",
						refRep.TotalCycles, gotRep.TotalCycles)
				}
			}
		})
	}
}
