package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"cosparse"
)

func TestLoadGraphGenerators(t *testing.T) {
	g, err := loadGraph("uniform:500:2000", 1, false, cosparse.Unweighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("vertices %d", g.NumVertices())
	}
	g2, err := loadGraph("powerlaw:300:1500", 1, false, cosparse.Weighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 300 {
		t.Fatalf("vertices %d", g2.NumVertices())
	}
	g3, err := loadGraph("suite:twitter", 64, false, cosparse.Unweighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumVertices() != 81306/64 {
		t.Fatalf("suite vertices %d", g3.NumVertices())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	cases := []string{
		"uniform:500",      // missing edge count
		"uniform:x:2000",   // bad vertex count
		"powerlaw:300:y",   // bad edge count
		"suite:nonesuch",   // unknown suite graph
		"/no/such/file.el", // missing file
	}
	for _, spec := range cases {
		if _, err := loadGraph(spec, 1, false, cosparse.Unweighted, 1); err == nil {
			t.Errorf("loadGraph(%q) accepted bad input", spec)
		}
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("# test\n0 1\n1 2\n2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, 1, false, cosparse.Unweighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("file graph %d/%d", g.NumVertices(), g.NumEdges())
	}
	und, err := loadGraph(path, 1, true, cosparse.Unweighted, 1)
	if err != nil {
		t.Fatal(err)
	}
	if und.NumEdges() != 6 {
		t.Fatalf("undirected edges %d, want 6", und.NumEdges())
	}
}

func TestWeightedByAlgo(t *testing.T) {
	if cosparse.AlgoSSSP.ValueMode() != cosparse.Weighted || cosparse.AlgoCF.ValueMode() != cosparse.Weighted {
		t.Fatal("sssp/cf must be weighted")
	}
	if cosparse.AlgoBFS.ValueMode() != cosparse.Unweighted || cosparse.AlgoPageRank.ValueMode() != cosparse.Unweighted {
		t.Fatal("bfs/pr must be unweighted")
	}
}

func TestLoadGraphMalformedSpecs(t *testing.T) {
	cases := []string{
		"suite:",            // missing suite name
		"uniform:0:100",     // non-positive vertices
		"powerlaw:100:-5",   // negative edges
		"uniform:1:2:3",     // too many parts
		"powerlaw:2.5:1000", // non-integer vertices
	}
	for _, spec := range cases {
		if _, err := loadGraph(spec, 1, false, cosparse.Unweighted, 1); err == nil {
			t.Errorf("loadGraph(%q) accepted malformed spec", spec)
		}
	}
}

func TestMaxDegreePicksHub(t *testing.T) {
	g, err := cosparse.NewGraph(4, []cosparse.Edge{
		{Src: 2, Dst: 0}, {Src: 2, Dst: 1}, {Src: 2, Dst: 3}, {Src: 0, Dst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := maxDegree(g); v != 2 {
		t.Fatalf("maxDegree = %d, want 2", v)
	}

	// On a tie the lowest id wins.
	g, err = cosparse.NewGraph(5, []cosparse.Edge{
		{Src: 3, Dst: 0}, {Src: 3, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 4}, {Src: 4, Dst: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := maxDegree(g); v != 1 {
		t.Fatalf("maxDegree = %d, want 1 (vertices 1 and 3 tie at degree 2)", v)
	}
}

func TestWriteTo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	g, _ := cosparse.GenerateUniform(50, 200, cosparse.Unweighted, 1)
	eng, _ := cosparse.New(g, cosparse.System{Tiles: 1, PEsPerTile: 2})
	_, rep, err := eng.PageRankContext(context.Background(), 2, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeTo(path, rep.WriteJSON); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty export")
	}
}
