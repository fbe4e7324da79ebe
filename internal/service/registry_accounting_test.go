package service

import (
	"strings"
	"testing"

	"cosparse"
)

// The generated powerlaw graphs dedup collisions, so the parsed edge
// count differs from the declared one — exactly the header/measured
// disagreement the reserve-then-reconcile accounting must absorb.

func testRegistry(t *testing.T, budget int64) *Registry {
	t.Helper()
	r := NewRegistry(8, 4, 1<<22, 1<<26, NewMetrics())
	r.SetMemoryBudget(budget)
	return r
}

func (r *Registry) usage(t *testing.T) (used int64, byFormat map[string]int64) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	byFormat = map[string]int64{}
	for k, v := range r.usedByFormat {
		byFormat[k] = v
	}
	return r.usedBytes, byFormat
}

// Registration must charge exactly the measured figure and Delete must
// release exactly that figure: after a register/delete cycle the books
// read zero even though declared and parsed edge counts disagree.
func TestRegisterAccountingReconciled(t *testing.T) {
	for _, format := range []string{"csr", "dvcsr", "auto", ""} {
		r := testRegistry(t, 1<<30)
		spec := GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7, Format: format}
		e, err := r.Register(spec)
		if err != nil {
			t.Fatalf("format %q: %v", format, err)
		}
		if e.Graph.NumEdges() == 1500 {
			t.Fatalf("format %q: generator did not dedup; the test wants declared != parsed", format)
		}
		want := GraphBytes(e.Graph)
		if e.bytes != want {
			t.Errorf("format %q: recorded charge %d, measured %d", format, e.bytes, want)
		}
		used, byFormat := r.usage(t)
		if used != want {
			t.Errorf("format %q: usedBytes %d, want %d", format, used, want)
		}
		if byFormat[e.Graph.Format()] != want {
			t.Errorf("format %q: usedByFormat[%s] = %d, want %d", format, e.Graph.Format(), byFormat[e.Graph.Format()], want)
		}
		if format == "dvcsr" {
			if got := r.m.GraphBytesDVCSR.Load(); got != want {
				t.Errorf("dvcsr gauge reads %d while registered, want %d", got, want)
			}
		}
		if err := r.Delete(e.ID); err != nil {
			t.Fatal(err)
		}
		used, byFormat = r.usage(t)
		if used != 0 {
			t.Errorf("format %q: usedBytes %d after delete, want 0", format, used)
		}
		for f, v := range byFormat {
			if v != 0 {
				t.Errorf("format %q: usedByFormat[%s] = %d after delete, want 0", format, f, v)
			}
		}
		if got := r.m.GraphBytesDVCSR.Load(); got != 0 {
			t.Errorf("format %q: dvcsr gauge reads %d after delete, want 0", format, got)
		}
	}
}

// A build that fails after its reservation was taken must release the
// reservation in full — the bug class where the parse-failure path
// leaked budget until the daemon restarted.
func TestRegisterBuildFailureReleasesReservation(t *testing.T) {
	r := NewRegistry(8, 4, 100, 1<<26, NewMetrics()) // maxVertices 100
	r.SetMemoryBudget(1 << 30)
	_, err := r.Register(GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7})
	if err == nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("register past maxVertices: err = %v", err)
	}
	if used, _ := r.usage(t); used != 0 {
		t.Fatalf("usedBytes %d after failed build, want 0 (reservation leaked)", used)
	}
	// The budget really is free: a fitting registration succeeds.
	if _, err := r.Register(GraphSpec{Kind: "powerlaw", Vertices: 90, Edges: 400, Seed: 7}); err != nil {
		t.Fatalf("register after failed build: %v", err)
	}
}

// The compressed format must multiply how many graphs one budget
// admits — the ISSUE's acceptance floor is 1.5x.
func TestBudgetAdmitsMoreCompressedGraphs(t *testing.T) {
	spec := GraphSpec{Kind: "powerlaw", Vertices: 2000, Edges: 30000, Seed: 5, Format: "csr"}
	g, err := spec.Build(1<<22, 1<<26)
	if err != nil {
		t.Fatal(err)
	}
	budget := 4 * GraphBytes(g)
	count := func(format string) int {
		r := testRegistry(t, budget)
		n := 0
		for seed := uint64(1); seed <= 64; seed++ {
			s := spec
			s.Seed, s.Format = seed, format
			if _, err := r.Register(s); err != nil {
				break
			}
			n++
		}
		return n
	}
	csr, dvcsr := count("csr"), count("dvcsr")
	if csr == 0 || float64(dvcsr) < 1.5*float64(csr) {
		t.Fatalf("budget admits %d csr graphs but only %d dvcsr, want >= 1.5x", csr, dvcsr)
	}
}

// The engine cache key must separate storage formats: the same logical
// graph registered under csr and dvcsr gets distinct engines, and
// repeat lookups hit the cached one.
func TestEngineCacheKeyedByFormat(t *testing.T) {
	r := testRegistry(t, 0)
	sys := cosparse.System{Tiles: 2, PEsPerTile: 4}
	if a, b := engineKey("g1", sys, cosparse.SimBackend, "csr", false),
		engineKey("g1", sys, cosparse.SimBackend, "dvcsr", false); a == b {
		t.Fatalf("engine keys collide across formats: %q", a)
	}
	spec := GraphSpec{Kind: "powerlaw", Vertices: 300, Edges: 1500, Seed: 7}
	var entries []*engineEntry
	for _, format := range []string{"csr", "dvcsr"} {
		s := spec
		s.Format = format
		e, err := r.Register(s)
		if err != nil {
			t.Fatal(err)
		}
		ee, err := r.Engine(e, sys, cosparse.SimBackend)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(ee.key, "fmt="+format) {
			t.Errorf("engine key %q missing fmt=%s", ee.key, format)
		}
		again, err := r.Engine(e, sys, cosparse.SimBackend)
		if err != nil {
			t.Fatal(err)
		}
		if again != ee {
			t.Errorf("format %s: repeat lookup built a new engine", format)
		}
		entries = append(entries, ee)
	}
	if entries[0] == entries[1] || entries[0].key == entries[1].key {
		t.Fatal("csr and dvcsr graphs shared one cached engine")
	}
	if hits := r.m.EngineCacheHits.Load(); hits != 2 {
		t.Errorf("engine cache hits = %d, want 2", hits)
	}
}
