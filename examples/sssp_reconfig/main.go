// SSSP with per-iteration reconfiguration: the case study of the
// paper's Fig. 9. A pokec-like social network drives the frontier from
// a single vertex up to ~half the graph and back down; the engine
// switches OP→IP→OP (and SC↔SCS within IP) as the density evolves, and
// the trace shows every decision.
//
//	go run ./examples/sssp_reconfig
package main

import (
	"context"
	"fmt"
	"log"

	"cosparse"
)

func main() {
	// The pokec stand-in from the paper's Table III suite, downscaled
	// 256× so the example runs in seconds (drop the factor for fidelity).
	g, err := cosparse.GenerateSuite("pokec", 256, cosparse.Weighted, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pokec stand-in: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	eng, err := cosparse.New(g, cosparse.System{Tiles: 16, PEsPerTile: 16})
	if err != nil {
		log.Fatal(err)
	}

	// Start from a well-connected vertex so the frontier actually grows.
	deg := g.OutDegrees()
	src := int32(0)
	for v, d := range deg {
		if d > deg[src] {
			src = int32(v)
		}
	}

	dist, rep, err := eng.SSSPContext(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}

	reached := 0
	for _, d := range dist {
		if d < 1e30 {
			reached++
		}
	}
	fmt.Printf("sssp from %d: reached %d/%d vertices\n\n", src, reached, g.NumVertices())

	fmt.Println("per-iteration reconfiguration trace (compare with the paper's Fig. 9):")
	fmt.Print(rep.Trace())
	fmt.Println()
	fmt.Println(rep.Summary())

	// Quantify what the reconfiguration bought: rerun pinned to the
	// naive IP/SC configuration.
	pinned, err := cosparse.New(g, cosparse.System{Tiles: 16, PEsPerTile: 16},
		cosparse.WithSoftware(cosparse.InnerProduct), cosparse.WithHardware(cosparse.ForceSC))
	if err != nil {
		log.Fatal(err)
	}
	_, repPinned, err := pinned.SSSPContext(context.Background(), src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIP/SC-only baseline: %d cycles -> reconfiguration speedup %.2fx (paper reports 1.51x on pokec)\n",
		repPinned.TotalCycles, float64(repPinned.TotalCycles)/float64(rep.TotalCycles))
}
