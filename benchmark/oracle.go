package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cosparse"
	"cosparse/internal/gen"
	"cosparse/internal/ligra"
	"cosparse/internal/rng"
)

// powerLawSkew is the exponent cosparse.GeneratePowerLaw passes to
// gen.PowerLaw; the harness regenerates the same matrix at the layer
// level for probes and for the Ligra reference.
const powerLawSkew = 0.55

// simAgg sums the simulator's statistics over a fixed set of jobs.
// Everything but hostNs repeats exactly for one seed.
type simAgg struct {
	cycles, kernel, merge, conv   int64
	stall, hbmRead, reconfig      int64
	events                        int64
	energyJ                       float64
	l1Weighted, l2Weighted, loads float64
	hostNs                        int64
}

func (a *simAgg) add(rep *cosparse.Report, host time.Duration) {
	a.cycles += rep.TotalCycles
	a.energyJ += rep.EnergyJ
	a.hostNs += host.Nanoseconds()
	for _, it := range rep.Iterations {
		a.kernel += it.KernelCycles
		a.merge += it.MergeCycles
		a.conv += it.ConvCycles
	}
	if m := rep.Memory; m != nil {
		a.stall += m.StallCycles
		a.hbmRead += m.HBMReadLines
		a.reconfig += m.ReconfigCycles
		a.events += m.Loads + m.Stores + m.StreamLoads
		a.l1Weighted += m.L1HitRate * float64(m.Loads)
		a.l2Weighted += m.L2HitRate * float64(m.Loads)
		a.loads += float64(m.Loads)
	}
}

// plus adds another set of jobs to the sum.
func (a *simAgg) plus(o *simAgg) {
	a.cycles += o.cycles
	a.kernel += o.kernel
	a.merge += o.merge
	a.conv += o.conv
	a.stall += o.stall
	a.hbmRead += o.hbmRead
	a.reconfig += o.reconfig
	a.events += o.events
	a.energyJ += o.energyJ
	a.l1Weighted += o.l1Weighted
	a.l2Weighted += o.l2Weighted
	a.loads += o.loads
	a.hostNs += o.hostNs
}

// emit writes the simulator's end-to-end and per-layer metrics. hostNs
// overrides the summed host time when the caller timed the same jobs
// several times and wants the median.
func (a *simAgg) emit(e *env, jobs int, hostNs float64) {
	e.set("sim_cycles", float64(a.cycles), jobs)
	e.set("sim_energy_uj", a.energyJ*1e6, jobs)
	e.set("sim_mevents_per_s", float64(a.events)/1e6/(hostNs/1e9), jobs)
	e.set("sim.cycles_kernel", float64(a.kernel), jobs)
	e.set("sim.cycles_merge", float64(a.merge), jobs)
	e.set("sim.cycles_conv", float64(a.conv), jobs)
	e.set("sim.stall_cycles", float64(a.stall), jobs)
	e.set("sim.hbm_read_lines", float64(a.hbmRead), jobs)
	e.set("sim.reconfig_cycles", float64(a.reconfig), jobs)
	e.set("sim.l1_hit_rate", a.l1Weighted/max(a.loads, 1), jobs)
	e.set("sim.l2_hit_rate", a.l2Weighted/max(a.loads, 1), jobs)
	e.set("sim.host_ns_per_event", hostNs/float64(max(a.events, 1)), jobs)
}

// oracleVertices/oracleEdges size the graph every workload checks the
// two backends and the Ligra reference on before it measures anything.
const (
	oracleVertices = 2048
	oracleEdges    = 16384
	oraclePRIters  = 3
)

// runOracle cross-checks one BFS + PageRank job sim-vs-native bit for
// bit and the BFS levels against internal/ligra, on a small graph made
// from the seed. It returns the simulated statistics of that job (the
// sim_* metrics of the workloads that do not simulate anything
// themselves), with host time as the median of three repetitions.
func runOracle(e *env) (*simAgg, float64, error) {
	n, edges := oracleVertices, oracleEdges
	if e.cfg.Tiny {
		n, edges = 512, 4096
	}
	seed := e.cfg.Seed ^ 0x6f7261636c65 // "oracle": a graph of its own
	g, err := cosparse.GeneratePowerLaw(n, edges, cosparse.Unweighted, seed)
	if err != nil {
		return nil, 0, err
	}
	src := topDegreeSources(g, seed, 1)[0]
	es, err := cosparse.New(g, sys)
	if err != nil {
		return nil, 0, err
	}
	en, err := cosparse.New(g, sys, cosparse.WithBackend(cosparse.NativeBackend))
	if err != nil {
		return nil, 0, err
	}

	var agg *simAgg
	var hostNs []float64
	var simBFS *cosparse.BFSResult
	var simPR []float32
	for r := 0; r < e.reps(3); r++ {
		a := &simAgg{}
		t0 := time.Now()
		bfs, rep, err := es.BFS(src)
		if err != nil {
			return nil, 0, err
		}
		a.add(rep, time.Since(t0))
		t0 = time.Now()
		pr, rep, err := es.PageRank(oraclePRIters, 0.15)
		if err != nil {
			return nil, 0, err
		}
		a.add(rep, time.Since(t0))
		hostNs = append(hostNs, float64(a.hostNs))
		if agg == nil {
			agg, simBFS, simPR = a, bfs, pr
		} else if a.cycles != agg.cycles {
			e.fail("oracle: simulated cycles differ between repetitions (%d vs %d)", a.cycles, agg.cycles)
		}
	}

	natBFS, _, err := en.BFS(src)
	if err != nil {
		return nil, 0, err
	}
	natPR, _, err := en.PageRank(oraclePRIters, 0.15)
	if err != nil {
		return nil, 0, err
	}
	for v := range simBFS.Level {
		if simBFS.Level[v] != natBFS.Level[v] || simBFS.Parent[v] != natBFS.Parent[v] {
			e.fail("oracle: BFS differs sim vs native at vertex %d", v)
			break
		}
	}
	for v := range simPR {
		if math.Float32bits(simPR[v]) != math.Float32bits(natPR[v]) {
			e.fail("oracle: PageRank differs sim vs native at vertex %d (%g vs %g)", v, simPR[v], natPR[v])
			break
		}
	}

	lres, err := ligra.BFS(ligra.NewGraph(gen.PowerLaw(n, edges, powerLawSkew, gen.Pattern, seed)), src, ligra.DefaultXeon())
	if err != nil {
		return nil, 0, err
	}
	if v, ok := levelsAgree(natBFS.Level, lres.Values, src); !ok {
		e.fail("oracle: BFS level of vertex %d disagrees with internal/ligra", v)
	}
	return agg, median(hostNs), nil
}

// levelsAgree derives BFS levels from Ligra's parent array (a vertex
// is one deeper than its parent) and compares them with ours. It
// returns the first disagreeing vertex.
func levelsAgree(level []int32, ligraParent []float32, src int32) (int, bool) {
	ref := make([]int32, len(level))
	for v := range ref {
		ref[v] = -2 // not derived yet
	}
	ref[src] = 0
	var depth func(v int32, hops int) int32
	depth = func(v int32, hops int) int32 {
		if ref[v] != -2 {
			return ref[v]
		}
		p := ligraParent[v]
		if math.IsInf(float64(p), 1) || hops > len(ref) {
			ref[v] = -1
			return -1
		}
		if d := depth(int32(p), hops+1); d >= 0 {
			ref[v] = d + 1
		} else {
			ref[v] = -1
		}
		return ref[v]
	}
	for v := range level {
		if depth(int32(v), 0) != level[v] {
			return v, false
		}
	}
	return 0, true
}

// topDegreeSources returns k distinct vertices drawn by a seeded
// shuffle from the 1024 highest-out-degree vertices of g (ties broken
// by id), the sources every traversal workload rotates through.
func topDegreeSources(g *cosparse.Graph, seed uint64, k int) []int32 {
	n := g.NumVertices()
	deg := make([]int32, n)
	for _, ed := range g.Edges() {
		deg[ed.Src]++
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if deg[ids[a]] != deg[ids[b]] {
			return deg[ids[a]] > deg[ids[b]]
		}
		return ids[a] < ids[b]
	})
	top := ids[:min(1024, n)]
	rng.New(seed).Shuffle(len(top), func(i, j int) { top[i], top[j] = top[j], top[i] })
	if k > len(top) {
		panic(fmt.Sprintf("benchmark: asked for %d sources from %d candidates", k, len(top)))
	}
	return append([]int32(nil), top[:k]...)
}
