// Crossover exploration: sweep the frontier density for one SpMV and
// watch the decision tree switch between the outer-product and
// inner-product kernels — a miniature of the paper's Fig. 4 experiment,
// using the public API only.
//
//	go run ./examples/crossover
package main

import (
	"context"
	"fmt"
	"log"

	"cosparse"
)

func main() {
	const n = 30_000
	g, err := cosparse.GenerateUniform(n, 300_000, cosparse.Unweighted, 3)
	if err != nil {
		log.Fatal(err)
	}

	for _, sys := range []cosparse.System{
		{Tiles: 4, PEsPerTile: 8},
		{Tiles: 4, PEsPerTile: 32},
	} {
		eng, err := cosparse.New(g, sys)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("system %s:\n", sys)
		fmt.Printf("  %-10s %-8s %-6s %-12s\n", "density", "active", "config", "cycles")

		for _, density := range []float64{0.001, 0.0025, 0.005, 0.01, 0.02, 0.04, 0.1} {
			// Build a frontier at this density: every k-th vertex active.
			k := int(1 / density)
			var idx []int32
			var val []float32
			for v := 0; v < n; v += k {
				idx = append(idx, int32(v))
				val = append(val, 1)
			}
			_, rep, err := eng.SpMVContext(context.Background(), idx, val)
			if err != nil {
				log.Fatal(err)
			}
			it := rep.Iterations[0]
			fmt.Printf("  %-10g %-8d %s/%-4s %-12d\n",
				density, len(idx), it.Software, it.Hardware, it.Cycles)
		}

		sw8, _ := eng.Decide(n / 100)
		fmt.Printf("  decision for a 1%% frontier: %s  (CVD falls as PEs/tile grows)\n\n", sw8)
	}
}
