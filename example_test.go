package cosparse_test

import (
	"context"
	"fmt"

	"cosparse"
)

// Build a tiny graph by hand and run one SpMV through the
// reconfigurable path.
func ExampleEngine_SpMVContext() {
	g, _ := cosparse.NewGraph(3, []cosparse.Edge{
		{Src: 0, Dst: 1, Weight: 2},
		{Src: 1, Dst: 2, Weight: 3},
		{Src: 0, Dst: 2, Weight: 5},
	})
	eng, _ := cosparse.New(g, cosparse.System{Tiles: 1, PEsPerTile: 2})
	y, _, _ := eng.SpMVContext(context.Background(), []int32{0, 1}, []float32{1, 1})
	fmt.Println(y)
	// Output: [0 2 8]
}

// The decision tree picks OP for sparse frontiers and IP for dense ones.
func ExampleEngine_Decide() {
	g, _ := cosparse.GenerateUniform(10_000, 100_000, cosparse.Unweighted, 1)
	eng, _ := cosparse.New(g, cosparse.System{Tiles: 4, PEsPerTile: 8})

	sw, _ := eng.Decide(10) // 0.1% of vertices active
	fmt.Println("sparse frontier:", sw)
	sw, _ = eng.Decide(5_000) // 50% active
	fmt.Println("dense frontier:", sw)
	// Output:
	// sparse frontier: OP
	// dense frontier: IP
}

// BFSContext returns parents and levels; unreachable vertices get -1.
func ExampleEngine_BFSContext() {
	// A path 0 -> 1 -> 2 and an isolated vertex 3.
	g, _ := cosparse.NewGraph(4, []cosparse.Edge{
		{Src: 0, Dst: 1},
		{Src: 1, Dst: 2},
	})
	eng, _ := cosparse.New(g, cosparse.System{Tiles: 1, PEsPerTile: 2})
	res, _, _ := eng.BFSContext(context.Background(), 0)
	fmt.Println("levels:", res.Level)
	// Output: levels: [0 1 2 -1]
}

// A custom algorithm needs only its Table I operators (§III-D): here,
// counting reachable vertices via an OR-style reachability semiring.
func ExampleOperators() {
	g, _ := cosparse.NewGraph(4, []cosparse.Edge{
		{Src: 0, Dst: 1},
		{Src: 1, Dst: 2},
		{Src: 3, Dst: 0},
	})
	eng, _ := cosparse.New(g, cosparse.System{Tiles: 1, PEsPerTile: 2})

	ops := cosparse.Operators{
		Name:      "reach",
		Identity:  0,
		MatrixOp:  func(e cosparse.EdgeCtx) float32 { return 1 }, // reached
		Reduce:    func(a, b float32) float32 { return max32(a, b) },
		Improving: func(next, cur float32) bool { return next > cur },
		OnceOnly:  true,
	}
	initial := make([]float32, 4)
	initial[0] = 1
	vals, _, _ := eng.RunContext(context.Background(), ops, initial, []int32{0}, 0)

	reached := 0
	for _, v := range vals {
		if v > 0 {
			reached++
		}
	}
	fmt.Println("reachable from 0 (incl. itself):", reached)
	// Output: reachable from 0 (incl. itself): 3
}

func max32(a, b float32) float32 {
	if a > b {
		return a
	}
	return b
}
