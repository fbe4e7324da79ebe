// Quickstart: generate a small social-network-like graph, run PageRank
// on a simulated 4×8 CoSPARSE machine, and inspect the report.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"cosparse"
)

func main() {
	// A power-law graph: 20k vertices, 200k edges — the degree skew of
	// real social networks.
	g, err := cosparse.GeneratePowerLaw(20_000, 200_000, cosparse.Unweighted, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Bind it to a simulated 4-tile × 8-PE reconfigurable machine.
	eng, err := cosparse.New(g, cosparse.System{Tiles: 4, PEsPerTile: 8})
	if err != nil {
		log.Fatal(err)
	}

	// Ten PageRank iterations with the standard damping factor.
	ranks, rep, err := eng.PageRankContext(context.Background(), 10, 0.15)
	if err != nil {
		log.Fatal(err)
	}

	// Top five vertices by rank.
	order := make([]int, len(ranks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] > ranks[order[b]] })
	fmt.Println("top vertices by PageRank:")
	for _, v := range order[:5] {
		fmt.Printf("  vertex %6d  rank %.5f  out-degree %d\n", v, ranks[v], g.OutDegree(int32(v)))
	}

	// The report carries simulated cycles, energy and the per-iteration
	// configuration decisions.
	fmt.Println()
	fmt.Println(rep.Summary())
	fmt.Println("PageRank keeps a dense frontier, so every iteration runs the")
	fmt.Println("inner-product kernel; the hardware configuration is chosen from")
	fmt.Println("the matrix working-set size:")
	fmt.Print(rep.Trace())
}
