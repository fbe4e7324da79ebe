// Recommendation: collaborative filtering on a bipartite user–item
// rating graph (the paper's CF workload). Users and items share one
// vertex space; each learns a latent factor by gradient descent, and
// predicted ratings are factor products.
//
//	go run ./examples/recommend
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"cosparse"
)

const (
	users   = 4000
	items   = 1000
	ratings = 60_000
)

func main() {
	// Synthesize ratings with planted structure: user u's affinity a(u)
	// times item i's quality q(i), plus noise. CF should recover factors
	// whose products approximate the ratings.
	r := newLCG(99)
	var edges []cosparse.Edge
	aff := make([]float32, users)
	qual := make([]float32, items)
	for u := range aff {
		aff[u] = 0.4 + r.Float32()
	}
	for i := range qual {
		qual[i] = 0.4 + r.Float32()
	}
	seen := map[[2]int32]bool{}
	for len(edges) < ratings {
		u := int32(r.Intn(users))
		i := int32(users + r.Intn(items))
		if seen[[2]int32{u, i}] {
			continue
		}
		seen[[2]int32{u, i}] = true
		rating := aff[u]*qual[i-users] + (r.Float32()-0.5)*0.1
		// Both directions so users and items both receive gradients.
		edges = append(edges,
			cosparse.Edge{Src: u, Dst: i, Weight: rating},
			cosparse.Edge{Src: i, Dst: u, Weight: rating})
	}

	g, err := cosparse.NewGraph(users+items, edges)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := cosparse.New(g, cosparse.System{Tiles: 4, PEsPerTile: 16})
	if err != nil {
		log.Fatal(err)
	}

	factors, rep, err := eng.CFContext(context.Background(), 30, 0.08, 0.002)
	if err != nil {
		log.Fatal(err)
	}

	// Reconstruction error over the known ratings.
	var se, n float64
	for _, e := range edges {
		pred := float64(factors[e.Src]) * float64(factors[e.Dst])
		d := pred - float64(e.Weight)
		se += d * d
		n++
	}
	fmt.Printf("trained CF on %d ratings (%d users, %d items)\n", ratings, users, items)
	fmt.Printf("rmse over known ratings: %.4f (ratings span ~0.2..2.0)\n", rmse(se, n))

	// Recommend: for one user, the unrated items with the highest
	// predicted rating.
	u := int32(17)
	type rec struct {
		item int32
		pred float32
	}
	var best []rec
	for i := int32(users); i < int32(users+items); i++ {
		if seen[[2]int32{u, i}] {
			continue
		}
		best = append(best, rec{i, factors[u] * factors[i]})
	}
	for k := 0; k < 5; k++ {
		top := k
		for j := k + 1; j < len(best); j++ {
			if best[j].pred > best[top].pred {
				top = j
			}
		}
		best[k], best[top] = best[top], best[k]
	}
	fmt.Printf("top recommendations for user %d:\n", u)
	for _, b := range best[:5] {
		fmt.Printf("  item %4d  predicted rating %.3f\n", b.item-users, b.pred)
	}

	fmt.Println()
	fmt.Println(rep.Summary())
}

func rmse(se, n float64) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / n)
}

// lcg is a tiny deterministic generator so the example has no
// dependencies beyond the public API.
type lcg struct{ s uint64 }

func newLCG(seed uint64) *lcg { return &lcg{s: seed*2862933555777941757 + 3037000493} }

func (l *lcg) next() uint64 {
	l.s = l.s*6364136223846793005 + 1442695040888963407
	return l.s
}

func (l *lcg) Intn(n int) int { return int((l.next() >> 33) % uint64(n)) }

func (l *lcg) Float32() float32 { return float32(l.next()>>40) / (1 << 24) }
