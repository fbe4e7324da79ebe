package cosparse

import (
	"context"
	"errors"
	"testing"
)

func TestParseAlgoRoundTrip(t *testing.T) {
	for _, a := range Algos() {
		got, err := ParseAlgo(a.String())
		if err != nil {
			t.Fatalf("ParseAlgo(%q): %v", a.String(), err)
		}
		if got != a {
			t.Fatalf("round trip %v -> %q -> %v", a, a.String(), got)
		}
	}
}

func TestParseAlgoAliasesAndCase(t *testing.T) {
	cases := map[string]Algo{
		"BFS":                     AlgoBFS,
		" sssp ":                  AlgoSSSP,
		"PageRank":                AlgoPageRank,
		"pr":                      AlgoPageRank,
		"cf":                      AlgoCF,
		"collaborative-filtering": AlgoCF,
	}
	for in, want := range cases {
		got, err := ParseAlgo(in)
		if err != nil {
			t.Errorf("ParseAlgo(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseAlgo(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseAlgo("dijkstra"); err == nil {
		t.Error("ParseAlgo accepted an unknown name")
	}
	if _, err := ParseAlgo(""); err == nil {
		t.Error("ParseAlgo accepted the empty string")
	}
}

func TestAlgoProperties(t *testing.T) {
	if !AlgoBFS.NeedsSource() || !AlgoSSSP.NeedsSource() {
		t.Error("bfs/sssp must need a source")
	}
	if AlgoPageRank.NeedsSource() || AlgoCF.NeedsSource() {
		t.Error("pr/cf must not need a source")
	}
	if AlgoSSSP.ValueMode() != Weighted || AlgoCF.ValueMode() != Weighted {
		t.Error("sssp/cf want weighted graphs")
	}
	if AlgoBFS.ValueMode() != Unweighted || AlgoPageRank.ValueMode() != Unweighted {
		t.Error("bfs/pr want unweighted graphs")
	}
}

func TestEngineContextCancellation(t *testing.T) {
	g, err := GeneratePowerLaw(300, 1500, Unweighted, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(g, System{Tiles: 2, PEsPerTile: 4})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := eng.PageRankContext(ctx, 10, 0.15)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Iterations) != 0 {
		t.Fatalf("expected empty partial report, got %+v", rep)
	}

	// A live context that never fires changes nothing.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	pr1, rep1, err := eng.PageRankContext(live, 5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	pr2, rep2, err := eng.PageRankContext(context.Background(), 5, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.TotalCycles != rep2.TotalCycles {
		t.Fatalf("cycles differ: %d vs %d", rep1.TotalCycles, rep2.TotalCycles)
	}
	for i := range pr1 {
		if pr1[i] != pr2[i] {
			t.Fatalf("rank %d differs", i)
		}
	}
}
