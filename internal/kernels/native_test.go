package kernels

import (
	"fmt"
	"math"
	"testing"

	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
)

// untagged returns ops with every ring's Kind cleared, which forces
// NativeIPMulti through the closure loop, and without scratch.
func untagged(ops []Operand) []Operand {
	out := make([]Operand, len(ops))
	for l, op := range ops {
		op.Ring.Kind = semiring.KindCustom
		op.Scratch = nil
		out[l] = op
	}
	return out
}

func sameBits(t *testing.T, what string, got, want matrix.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: row %d: got %g (%#x), want %g (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestNativeIPSpecialisedMatchesClosure pins the contract of the
// hand-specialised IP loops: for every built-in ring the tagged loop
// and the closure fallback produce the same float32 bits, on layouts
// that hit rows split across vblocks, PEs without rows, sources with
// out-degree zero, frontiers whose identity-valued sources are skipped,
// vblocking off, one lane and three lanes of mixed rings, and a scratch
// carried from one call into the next.
func TestNativeIPSpecialisedMatchesClosure(t *testing.T) {
	layouts := []struct {
		name        string
		m           *matrix.COO
		pes, vblock int
	}{
		{"powerlaw/vblock64", gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 1), 8, 64},
		{"powerlaw/novblock", gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 1), 8, 0},
		{"uniform/emptyPEs", gen.Uniform(8, 30, gen.UniformWeight, 3), 32, 4},
	}
	for _, lay := range layouts {
		m := lay.m
		// An infinite weight on an edge whose source the first frontier
		// leaves inactive: a loop that failed to skip it would turn
		// 0·Inf into a NaN. It also puts the graph outside minPlusSafe,
		// so SSSP runs the closure loop on both sides.
		for k, col := range m.Col {
			if col%3 != 0 {
				m.Val[k] = float32(math.Inf(1))
				break
			}
		}
		part := NewIPPartition(m, lay.pes, lay.vblock, BalanceNNZ)
		if part.Materialize(); part.minPlusSafe {
			t.Fatalf("%s: an +Inf weight passed minPlusSafe", lay.name)
		}
		prev := make(matrix.Dense, m.R)
		for i := range prev {
			prev[i] = float32(i%7) + 0.5
		}
		// Two frontiers per ring: a third of the sources active, then
		// every source — the second call reuses the first one's scratch.
		frontiers := func(ring semiring.Semiring) [2]matrix.Dense {
			var xs [2]matrix.Dense
			for j := range xs {
				xs[j] = make(matrix.Dense, m.C)
				for i := range xs[j] {
					xs[j][i] = float32(i%11)/8 + 0.125
					if j == 0 && !ring.DenseFrontier && i%3 != 0 {
						xs[j][i] = ring.Identity
					}
				}
			}
			return xs
		}
		operand := func(ring semiring.Semiring) Operand {
			op := opFor(ring, m, prev)
			op.Ctx.Seed = 2
			op.Scratch = new(Scratch)
			if op.Deg != nil {
				// Sources the generator left without out-edges stay at
				// zero; force the case onto sources that have edges too.
				for v := 0; v < len(op.Deg); v += 5 {
					op.Deg[v] = 0
				}
			}
			return op
		}
		run := func(name string, rings []semiring.Semiring) {
			ops := make([]Operand, len(rings))
			var xs [2][]matrix.Dense
			for l, ring := range rings {
				ops[l] = operand(ring)
				f := frontiers(ring)
				xs[0], xs[1] = append(xs[0], f[0]), append(xs[1], f[1])
			}
			for j := range xs {
				got := NativeIPMulti(part, xs[j], ops)
				want := NativeIPMulti(part, xs[j], untagged(ops))
				for l := range rings {
					sameBits(t, fmt.Sprintf("%s %s lane %d (%s) call %d", lay.name, name, l, rings[l].Name, j), got[l], want[l])
				}
			}
		}
		// Every tagged row; PPR shares PR's tag and loop.
		for _, ring := range []semiring.Semiring{semiring.SpMV(), semiring.BFS(), semiring.SSSP(), semiring.PR(), semiring.PPR(), semiring.CF()} {
			run("solo", []semiring.Semiring{ring})
		}
		run("mixed", []semiring.Semiring{semiring.PR(), semiring.BFS(), semiring.CF()})
		run("mixed", []semiring.Semiring{semiring.SSSP(), semiring.PPR(), semiring.SpMV()})
	}
}

// TestNativeIPDispatchIsOnKindNotName runs a custom ring that calls
// itself "PR" but doubles the source value instead of dividing it by
// the degree: it must take the closure loop and agree with the
// simulator's generic pass, not with PageRank.
func TestNativeIPDispatchIsOnKindNotName(t *testing.T) {
	m := gen.PowerLaw(300, 3000, 0.6, gen.UniformWeight, 1)
	c := cfg(2, 4, sim.SC)
	part := NewIPPartition(m, c.Geometry.TotalPEs(), c.SPMWordsPerTile(), BalanceNNZ)
	impostor := semiring.Semiring{
		Name:          "PR",
		MatOp:         func(_, vsrc float32, _ semiring.Ctx) float32 { return 2 * vsrc },
		Reduce:        func(a, b float32) float32 { return a + b },
		Improving:     func(next, cur float32) bool { return next != cur },
		MatOpCost:     1,
		ReduceCost:    1,
		DenseFrontier: true,
	}
	x := make(matrix.Dense, m.C)
	for i := range x {
		x[i] = float32(i%11)/8 + 0.125
	}
	op := Operand{Ring: impostor}
	want, _ := runIP(c, part, x, op)
	got := NativeIPMulti(part, []matrix.Dense{x}, []Operand{op})[0]
	sameBits(t, "impostor vs sim", got, want)

	pr := NativeIPMulti(part, []matrix.Dense{x}, []Operand{opFor(semiring.PR(), m, nil)})[0]
	for i := range pr {
		if pr[i] != got[i] {
			return
		}
	}
	t.Fatal("a custom ring named PR produced PageRank's contributions: dispatch is on the name")
}
