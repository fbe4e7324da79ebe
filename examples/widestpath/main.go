// Widest path through custom operators: the paper's framework promise
// is that a new graph algorithm only needs its Matrix_Op / Vector_Op
// definitions (§III-D). This example defines the max-min "widest path"
// semiring (maximize the minimum edge capacity along a path) with the
// public Operators API and runs it through the same reconfigurable
// IP/OP machinery as the built-in algorithms.
//
//	go run ./examples/widestpath
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"cosparse"
)

func main() {
	// A capacity network: power-law topology, weights = link capacities.
	g, err := cosparse.GeneratePowerLaw(10_000, 120_000, cosparse.Weighted, 5)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cosparse.New(g, cosparse.System{Tiles: 4, PEsPerTile: 16})
	if err != nil {
		log.Fatal(err)
	}

	src := int32(0)
	initial := make([]float32, g.NumVertices())
	initial[src] = float32(math.Inf(1)) // unlimited capacity at the source

	ops := cosparse.Operators{
		Name:     "widest-path",
		Identity: 0, // unreached = zero capacity
		MatrixOp: func(e cosparse.EdgeCtx) float32 {
			// The bottleneck of extending the path over this edge.
			if e.Weight < e.SrcVal {
				return e.Weight
			}
			return e.SrcVal
		},
		Reduce: func(a, b float32) float32 { // best bottleneck wins
			if a > b {
				return a
			}
			return b
		},
		Improving: func(next, cur float32) bool { return next > cur },
	}

	cap_, rep, err := eng.RunContext(context.Background(), ops, initial, []int32{src}, 0)
	if err != nil {
		log.Fatal(err)
	}

	reached, sum := 0, 0.0
	for v, c := range cap_ {
		if int32(v) != src && c > 0 {
			reached++
			sum += float64(c)
		}
	}
	fmt.Printf("widest paths from %d: %d vertices reachable, mean bottleneck capacity %.4f\n",
		src, reached, sum/float64(reached))
	fmt.Println()
	fmt.Println("the custom semiring runs through the same per-iteration")
	fmt.Println("reconfiguration as BFS/SSSP:")
	fmt.Print(rep.Trace())
	fmt.Println()
	fmt.Println(rep.Summary())
}
