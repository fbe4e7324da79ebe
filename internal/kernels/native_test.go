package kernels

import (
	"fmt"
	"math"
	"runtime"
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

// TestNativePRWalksAgree pins the PageRank pull's bucket walk to the
// closure loop's bits: prWalk over every PE, and NativeIPMulti on
// a fused PR/PPR/PR call, with Validate holding the buckets to the IP
// arrays. Each layout checks the group it is there for: short runs,
// every one of the four straight-line groups (the 2^16-vertex power-law
// graph at the SCS vblock width), long runs (the svc-ppr-open shape:
// 8 192 vertices, 131 072 edges, one vblock), hub rows that fill every
// vblock and own their PEs, so consecutive segments hold the same row,
// one-element segments, and one vblock too wide for 16-bit columns
// (2^17 columns, no vertical blocking), the one layout whose buckets
// keep 32-bit ones. Every fifth source has out-degree zero.
func TestNativePRWalksAgree(t *testing.T) {
	scs := cfg(16, 16, sim.SCS)
	const hubN = 512
	var hubElems []matrix.Coord
	for _, h := range []int32{3, 200, 201, 400} {
		for c := int32(0); c < hubN; c++ {
			hubElems = append(hubElems, matrix.Coord{Row: h, Col: c, Val: 1})
		}
	}
	for r := int32(0); r < hubN; r += 3 {
		for k := int32(1); k <= 4; k++ {
			hubElems = append(hubElems, matrix.Coord{Row: r, Col: (r*7 + k*61) % hubN, Val: 1})
		}
	}
	hub, err := matrix.NewCOO(hubN, hubN, hubElems)
	if err != nil {
		t.Fatal(err)
	}
	// elems counts the elements each group holds: L = 1..4, then long.
	type shape struct {
		elems                  [5]int
		oneElemSegs, oneRowPEs int
		wide                   bool // 32-bit bucket columns
	}
	layouts := []struct {
		name        string
		m           *matrix.COO
		pes, vblock int
		covers      func(shape) bool
	}{
		{"powerlaw2^16/scs", gen.PowerLaw(1<<16, 16<<16, 0.55, gen.UniformWeight, 16), scs.Geometry.TotalPEs(), scs.SPMWordsPerTile(),
			func(s shape) bool {
				short := 0
				for _, e := range s.elems[:4] {
					if e < 1000 {
						return false
					}
					short += e
				}
				return short > s.elems[4] && !s.wide
			}},
		{"powerlaw2^13/onevblock", gen.PowerLaw(1<<13, 16<<13, 0.55, gen.UniformWeight, 16), scs.Geometry.TotalPEs(), scs.SPMWordsPerTile(),
			func(s shape) bool { return s.elems[4] > 4*(s.elems[0]+s.elems[1]+s.elems[2]+s.elems[3]) }},
		{"hubs/vblock64", hub, 16, 64, func(s shape) bool { return s.oneRowPEs >= 2 && s.elems[4] > 0 }},
		{"uniform/oneElementSegs", gen.Uniform(256, 300, gen.UniformWeight, 5), 64, 4, func(s shape) bool { return s.oneElemSegs > 100 }},
		{"uniform2^17/novblocks", gen.Uniform(1<<17, 1<<18, gen.UniformWeight, 7), 16, 0, func(s shape) bool { return s.wide }},
	}
	for _, lay := range layouts {
		m := lay.m
		part := NewIPPartition(m, lay.pes, lay.vblock, BalanceNNZ)
		if err := part.Validate(m); err != nil {
			t.Fatalf("%s: %v", lay.name, err)
		}
		deg := m.OutDegrees()
		for v := 0; v < len(deg); v += 5 {
			deg[v] = 0
		}
		frontier := func(seed int) matrix.Dense {
			x := make(matrix.Dense, m.C)
			for i := range x {
				x[i] = 1/float32(i%97+seed) + float32(i%13)/3
			}
			return x
		}
		operand := func(ring semiring.Semiring) Operand {
			return Operand{Ring: ring, Deg: deg, Ctx: semiring.Ctx{Alpha: 0.15, Seed: 2}, Scratch: new(Scratch)}
		}

		// The walk on every PE, against the closure loop.
		x := frontier(1)
		y := make(matrix.Dense, m.C)
		for v, d := range deg {
			if d != 0 {
				y[v] = x[v] / float32(d)
			}
		}
		op := operand(semiring.PR())
		want, got := make(matrix.Dense, m.R), make(matrix.Dense, m.R)
		b := part.buckets()
		sh := shape{wide: b.col32 != nil}
		prWalk(part, 0, int32(part.NumPEs), []int{0}, []matrix.Dense{y}, []matrix.Dense{got})
		for pe, segs := range part.Segs {
			ipClosures(part, segs, x, want, &op)
			for si, seg := range segs {
				n := b.pe[pe].seg[si].n
				for g := range 4 {
					sh.elems[g] += (g + 1) * int(n[g])
				}
				sh.elems[4] += int(seg.Hi-seg.Lo) - int(n[0]+2*n[1]+3*n[2]+4*n[3])
				if seg.Hi-seg.Lo == 1 {
					sh.oneElemSegs++
				}
			}
			if len(segs) > 1 && part.Row[segs[0].Lo] == part.Row[segs[len(segs)-1].Hi-1] {
				sh.oneRowPEs++
			}
		}
		if !lay.covers(sh) {
			t.Fatalf("%s: layout lost its shape: %+v", lay.name, sh)
		}
		sameBits(t, lay.name+" prWalk", got, want)

		// A fused call mixing PR and PPR.
		xs := []matrix.Dense{frontier(1), frontier(2), frontier(3)}
		ops := []Operand{operand(semiring.PR()), operand(semiring.PPR()), operand(semiring.PR())}
		gots := NativeIPMulti(part, xs, ops)
		wants := NativeIPMulti(part, xs, untagged(ops))
		for l := range ops {
			sameBits(t, fmt.Sprintf("%s fused lane %d (%s)", lay.name, l, ops[l].Ring.Name), gots[l], wants[l])
		}
	}
}

// TestParallelChunksTilesRange holds parallelChunks to its contract at
// several GOMAXPROCS settings: one result per chunk, in chunk order,
// the chunks tiling [0, n) without gaps, and never more chunks than
// GOMAXPROCS or than n (but at least one).
func TestParallelChunksTilesRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 7, 1000} {
			got := parallelChunks(n, func(lo, hi int32) [2]int32 { return [2]int32{lo, hi} })
			if want := max(min(procs, n), 1); len(got) != want {
				t.Fatalf("GOMAXPROCS %d, n %d: %d chunks, want %d", procs, n, len(got), want)
			}
			next := int32(0)
			for c, r := range got {
				if r[0] != next || r[1] < r[0] {
					t.Fatalf("GOMAXPROCS %d, n %d: chunk %d is [%d, %d), want it to start at %d", procs, n, c, r[0], r[1], next)
				}
				next = r[1]
			}
			if next != int32(n) {
				t.Fatalf("GOMAXPROCS %d, n %d: chunks end at %d", procs, n, next)
			}
		}
	}
}
