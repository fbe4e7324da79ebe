package cosparse

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// goldenReport is a hand-built report with every field populated, for
// byte-exact format tests: cmd/cosparse -json writes these bytes, and the
// service's include_trace status embeds the same Report encoding, so
// field names, order, and number formatting are API surface.
func goldenReport() *Report {
	return &Report{
		Algorithm: "SSSP",
		System:    System{Tiles: 4, PEsPerTile: 8},
		Iterations: []IterationStat{
			{Iter: 0, FrontierSize: 1, Density: 0.001, Software: "OP", Hardware: "PC", Reconfigured: false, Cycles: 1200, EnergyJ: 0.25},
			{Iter: 1, FrontierSize: 500, Density: 0.5, Software: "IP", Hardware: "SCS", Reconfigured: true, Cycles: 34000, EnergyJ: 1.5},
		},
		TotalCycles: 35200,
		Seconds:     3.52e-05,
		EnergyJ:     1.75,
		AvgPowerW:   49715.909090909096,
	}
}

func TestReportJSONGolden(t *testing.T) {
	var sb strings.Builder
	if err := goldenReport().WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	want := `{
  "Algorithm": "SSSP",
  "System": {
    "Tiles": 4,
    "PEsPerTile": 8
  },
  "Iterations": [
    {
      "Iter": 0,
      "FrontierSize": 1,
      "Density": 0.001,
      "Software": "OP",
      "Hardware": "PC",
      "Reconfigured": false,
      "Cycles": 1200,
      "EnergyJ": 0.25
    },
    {
      "Iter": 1,
      "FrontierSize": 500,
      "Density": 0.5,
      "Software": "IP",
      "Hardware": "SCS",
      "Reconfigured": true,
      "Cycles": 34000,
      "EnergyJ": 1.5
    }
  ],
  "TotalCycles": 35200,
  "Seconds": 0.0000352,
  "EnergyJ": 1.75,
  "AvgPowerW": 49715.909090909096
}
`
	if got := sb.String(); got != want {
		t.Fatalf("WriteJSON drifted from the golden output:\n got: %q\nwant: %q", got, want)
	}
}

func TestReportExportDeterministic(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	_, rep, err := eng.SSSPContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two WriteJSON calls on the same report differ")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	g := testGraph(t)
	eng := testEngine(t, g)
	_, rep, err := eng.SSSPContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal([]byte(sb.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != rep.Algorithm || back.TotalCycles != rep.TotalCycles ||
		len(back.Iterations) != len(rep.Iterations) {
		t.Fatalf("JSON round trip lost data: %+v", back)
	}
}
