package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"cosparse"
)

// libSpec describes a closed-loop, one-caller workload on the library.
type libSpec struct {
	vertices, edges int
	backend         cosparse.Backend
	// dvcsr re-encodes the graph in set-up and leaves the engine to the
	// job, which builds and discards one every time.
	dvcsr bool
	// twin adds a weighted graph of the same size, for SSSP.
	twin bool
	job  func(in *libInst, c *caller, src int32) error
}

// libSources is how many sources a library workload rotates through:
// few enough that each repeats inside a window, so every answer is
// checked against the first answer for its source.
const libSources = 8

// libInst is what set-up leaves for the jobs.
type libInst struct {
	g, gw     *cosparse.Graph
	eng, engW *cosparse.Engine
	sources   []int32
	genMs     float64
}

// caller makes one job's calls into the library, timing each, keeping
// the reports they return and, in a traced job, recording a span per
// call with the per-iteration phase walls as its children.
type caller struct {
	tr      *tracer // nil unless this job is traced
	job     int
	span    int // the job's own span
	reports []*cosparse.Report
	hosts   []time.Duration // wall of the call behind each report
	// The answers, kept so they are hashed after the job's clock stops.
	floats [][]float32
	ints   [][]int32
}

// checksum is the FNV-1a hash of the job's answers (float32 bits and
// int32s, little-endian), so an answer can be compared with the first
// one for the same source without keeping either.
func (c *caller) checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	word := func(w uint32) {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	for _, v := range c.floats {
		for _, f := range v {
			word(math.Float32bits(f))
		}
	}
	for _, v := range c.ints {
		for _, i := range v {
			word(uint32(i))
		}
	}
	return h.Sum64()
}

// run times a call that returns no report (cosparse.New).
func (c *caller) run(name string, f func() error) error {
	id := c.tr.begin(c.span, c.job, name)
	err := f()
	c.tr.end(id)
	return err
}

// engine times an Engine.* call and keeps its report.
func (c *caller) engine(name string, f func() (*cosparse.Report, error)) error {
	id := c.tr.begin(c.span, c.job, name)
	t0 := time.Now()
	rep, err := f()
	host := time.Since(t0)
	c.tr.end(id)
	if err != nil {
		return err
	}
	c.reports = append(c.reports, rep)
	c.hosts = append(c.hosts, host)
	phaseSpans(c.tr, id, c.job, t0, rep.Iterations)
	return nil
}

// phaseSpans lays an engine call's per-iteration phase walls end to
// end from the call's start, as children of its span. The durations
// are the engine's own; the positions are approximate, because the
// report does not say when each phase began.
func phaseSpans(tr *tracer, parent, job int, start time.Time, iters []cosparse.IterationStat) {
	if tr == nil {
		return
	}
	at := start
	for _, it := range iters {
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"runtime.conv", it.ConvWall}, {"runtime.kernel", it.KernelWall}, {"runtime.merge", it.MergeWall}} {
			if ph.d > 0 {
				tr.add(parent, job, ph.name, at, at.Add(ph.d))
				at = at.Add(ph.d)
			}
		}
	}
}

// phaseAgg sums what the reports of a set of jobs say about where the
// engine's time went. Walls are summed over every job; the iteration
// counts are kept once per source, because a source's job always takes
// the same iterations and the set of sources is fixed, so their mean
// does not depend on how many jobs a window held.
type phaseAgg struct {
	jobs                      int
	kernelMs, mergeMs, convMs float64
	engineMs                  float64
	bySource                  map[int32]iterCounts
}

type iterCounts struct{ iters, ip, reconfigs int }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// addJob adds one job from src whose engine calls took engineMs and
// reported the given iterations.
func (a *phaseAgg) addJob(src int32, engineMs float64, calls ...[]cosparse.IterationStat) {
	a.jobs++
	a.engineMs += engineMs
	var c iterCounts
	for _, iters := range calls {
		for _, it := range iters {
			c.iters++
			if it.Software == "IP" {
				c.ip++
			}
			if it.Reconfigured {
				c.reconfigs++
			}
			a.kernelMs += ms(it.KernelWall)
			a.mergeMs += ms(it.MergeWall)
			a.convMs += ms(it.ConvWall)
		}
	}
	if a.bySource == nil {
		a.bySource = map[int32]iterCounts{}
	}
	if _, seen := a.bySource[src]; !seen {
		a.bySource[src] = c
	}
}

// emitCounts writes the exact iteration counts: means over the sources.
func (a *phaseAgg) emitCounts(e *env) {
	var sum iterCounts
	for _, c := range a.bySource {
		sum.iters += c.iters
		sum.ip += c.ip
		sum.reconfigs += c.reconfigs
	}
	n := float64(max(len(a.bySource), 1))
	e.set("runtime.iters_per_job", float64(sum.iters)/n, len(a.bySource))
	e.set("runtime.ip_iter_share", float64(sum.ip)/float64(max(sum.iters, 1)), sum.iters)
	e.set("runtime.reconfigs_per_job", float64(sum.reconfigs)/n, len(a.bySource))
}

// emitWalls writes the per-job phase walls; self is the engine time no
// phase accounts for (decisions, allocation, report building).
func (a *phaseAgg) emitWalls(e *env) {
	j := float64(max(a.jobs, 1))
	e.set("runtime.kernel_ms_per_job", a.kernelMs/j, a.jobs)
	e.set("runtime.merge_ms_per_job", a.mergeMs/j, a.jobs)
	e.set("runtime.conv_ms_per_job", a.convMs/j, a.jobs)
	e.set("runtime.self_ms_per_job", max(0, a.engineMs-a.kernelMs-a.mergeMs-a.convMs)/j, a.jobs)
}

// latencies collects the window's job latencies.
type latencies struct {
	all           []float64 // every job's latency in ms
	traced, plain []float64 // the same latencies, split by whether the job recorded spans
	bySource      map[int32][]float64
}

func (l *latencies) add(src int32, v float64, traced bool) {
	l.all = append(l.all, v)
	if traced {
		l.traced = append(l.traced, v)
	} else {
		l.plain = append(l.plain, v)
	}
	if l.bySource == nil {
		l.bySource = map[int32][]float64{}
	}
	l.bySource[src] = append(l.bySource[src], v)
}

// quietPercentile is the percentile of a source's latencies taken as
// its latency on an undisturbed host: with the handful of samples a
// library source gets in a window it is the fastest one.
const quietPercentile = 10

// quietP50 is the median, over the sources of the job mix, of each
// source's quiet latency. The build host's neighbours take the CPU and
// the memory bus in bursts of seconds, which can only lengthen a job;
// the plain median then says how many of a window's seconds were
// disturbed (it repeats to within 6 to 27 %), the low percentile of
// each source says how long its job takes when they were not (3 to
// 7 %). Taking it per source and then the median over sources keeps it
// a statement about the whole mix, not about its cheapest source.
func (l *latencies) quietP50() float64 {
	quiet := make([]float64, 0, len(l.bySource))
	for _, v := range l.bySource {
		quiet = append(quiet, percentile(v, quietPercentile))
	}
	return median(quiet)
}

// emit writes the latency and throughput metrics both kinds of workload
// share; good is the number of correct jobs, elapsed how long the loop
// ran, slowdown how slow the host was meanwhile (hostSpeed.slowdown).
func (l *latencies) emit(e *env, good int, elapsed, slowdown float64) {
	e.set("job_ms_quiet_p50", l.quietP50()/slowdown, len(l.all))
	e.set("host.ref_slowdown", slowdown, 1)
	e.set("job_ms_p50", median(l.all), len(l.all))
	e.set("job_ms_p95", percentile(l.all, 95), len(l.all))
	if !tailResolved(len(l.all), 95) {
		e.note("job_ms_p95 rests on %d jobs: fewer than 200, so fewer than %d lie beyond it", len(l.all), minTailSamples)
	}
	e.set("jobs_per_s", float64(good)/elapsed, good)
	over := 0.0
	if len(l.traced) > 0 && len(l.plain) > 0 {
		over = (median(l.traced)/median(l.plain) - 1) * 100
	}
	e.set("harness.trace_overhead_pct", over, len(l.traced))
	if e.cfg.Traced {
		e.check("harness.trace_overhead_pct", over, over < 5, "< 5")
	}
}

func (s libSpec) setup(e *env) (*libInst, error) {
	n, edges := e.size(s.vertices, s.edges)
	in := &libInst{}
	t0 := time.Now()
	g, err := cosparse.GeneratePowerLaw(n, edges, cosparse.Unweighted, e.cfg.Seed)
	if err != nil {
		return nil, err
	}
	in.genMs = ms(time.Since(t0))
	if s.twin {
		if in.gw, err = cosparse.GeneratePowerLaw(n, edges, cosparse.Weighted, e.cfg.Seed); err != nil {
			return nil, err
		}
	}
	in.sources = topDegreeSources(g, e.cfg.Seed, libSources)
	if s.dvcsr {
		if g, err = g.InFormat(cosparse.DVCSRFormat); err != nil {
			return nil, err
		}
	} else {
		if in.eng, err = cosparse.New(g, sys, cosparse.WithBackend(s.backend)); err != nil {
			return nil, err
		}
		if s.twin {
			if in.engW, err = cosparse.New(in.gw, sys, cosparse.WithBackend(s.backend)); err != nil {
				return nil, err
			}
		}
	}
	in.g = g
	// The first job pays the lazy partition materialisation, which is
	// set-up a user waits for once, not steady-state latency.
	if err := s.job(in, &caller{job: -1}, in.sources[0]); err != nil {
		return nil, err
	}
	return in, nil
}

// runLibrary is the closed-loop, one-caller run every lib-* workload
// shares: oracle, repeated set-up, warm-up, window, then (traced) the
// layer probes.
func runLibrary(e *env, s libSpec) error {
	orc, orcHostNs, err := runOracle(e)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}

	var in *libInst
	setups, err := e.repeatSetup(func() {
		in = nil
		runtime.GC() // the previous repetition's graph is garbage, not working set
	}, func() (err error) {
		in, err = s.setup(e)
		return err
	})
	if err != nil {
		return err
	}
	e.set("setup_s", median(setups), len(setups))
	e.set("gen.build_ms", in.genMs, 1)
	resident := in.g.ResidentBytes()
	if in.gw != nil {
		resident += in.gw.ResidentBytes()
	}
	e.set("graph_resident_mb", float64(resident)/1e6, 1)

	expect := map[int32]uint64{}     // first answer per source
	perSource := map[int32]*simAgg{} // simulated statistics per source
	reportIters := func(c *caller) [][]cosparse.IterationStat {
		calls := make([][]cosparse.IterationStat, len(c.reports))
		for i, rep := range c.reports {
			calls[i] = rep.Iterations
		}
		return calls
	}
	oneJob := func(src int32, jobIdx int, traced bool) (float64, *caller, error) {
		c := &caller{job: jobIdx}
		if traced {
			c.tr = e.tr
			c.span = c.tr.begin(0, jobIdx, "job")
		}
		t0 := time.Now()
		err := s.job(in, c, src)
		wall := ms(time.Since(t0))
		c.tr.end(c.span)
		if err != nil {
			return 0, nil, err
		}
		sum := c.checksum()
		if first, seen := expect[src]; !seen {
			expect[src] = sum
		} else if first != sum {
			return wall, c, errWrongAnswer
		}
		if s.backend == cosparse.SimBackend && perSource[src] == nil {
			a := &simAgg{}
			for i, rep := range c.reports {
				a.add(rep, c.hosts[i])
			}
			perSource[src] = a
		}
		return wall, c, nil
	}

	next := 0 // position in the source ring
	ringSrc := func() int32 { next++; return in.sources[(next-1)%len(in.sources)] }
	for t0, n := time.Now(), 0; n < 10 && time.Since(t0) < e.warmup() || n == 0; n++ {
		if _, _, err := oneJob(ringSrc(), -1, false); err != nil {
			return fmt.Errorf("warm-up job: %w", err)
		}
	}

	var lat latencies
	var phases phaseAgg
	var simWin simAgg // host time and events of every window job
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	mark := e.speed.mark()
	e.speed.sample()
	start := time.Now()
	for i := 0; time.Since(start) < e.window(); i++ {
		traced := e.tr != nil && i%2 == 0
		src := ringSrc()
		wall, c, err := oneJob(src, i, traced)
		e.res.Attempted++
		if err != nil {
			e.res.Failed++
			e.note("job %d: %v", i, err)
			continue
		}
		lat.add(src, wall, traced)
		engineMs := 0.0
		for k, rep := range c.reports {
			engineMs += ms(c.hosts[k])
			if s.backend == cosparse.SimBackend {
				simWin.add(rep, c.hosts[k])
			}
		}
		phases.addJob(src, engineMs, reportIters(c)...)
		e.speed.sample() // one reference slice between jobs
	}
	slowdown, sliceMs := e.speed.slowdown(mark)
	elapsed := time.Since(start).Seconds() - sliceMs/1e3
	runtime.ReadMemStats(&m1)
	good := e.res.Attempted - e.res.Failed
	if good == 0 {
		return fmt.Errorf("no job succeeded in the window")
	}

	lat.emit(e, good, elapsed, slowdown)
	e.set("runtime.alloc_mb_per_job", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(e.res.Attempted), e.res.Attempted)
	phases.emitCounts(e)

	if s.backend == cosparse.SimBackend {
		// The simulated statistics are summed over the fixed source
		// ring, one job each, so they do not depend on how many jobs
		// the window held; host speed uses every window job.
		for _, src := range in.sources {
			if perSource[src] == nil {
				if _, _, err := oneJob(src, -1, false); err != nil {
					return fmt.Errorf("simulated job for source %d: %w", src, err)
				}
			}
		}
		var ring simAgg
		for _, src := range in.sources {
			ring.plus(perSource[src])
		}
		ring.events = simWin.events
		ring.emit(e, len(in.sources), float64(simWin.hostNs))
	} else {
		orc.emit(e, 1, orcHostNs)
		phases.emitWalls(e)
	}

	if !e.cfg.Traced {
		return nil
	}
	switch {
	case s.backend == cosparse.SimBackend:
		// The simulator reports cycles, not phase walls; the same jobs
		// on a native engine over the same graph give the runtime rows.
		if err := nativeTwinPhases(e, in); err != nil {
			return err
		}
	case s.dvcsr:
		if err := coldShareCheck(e, in); err != nil {
			return err
		}
	}
	designChecksLib(e, &phases, median(lat.all))
	if err := layerProbes(e, in.g, s.vertices, s.edges); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	return serviceProbe(e)
}

var errWrongAnswer = errors.New("answer differs from the first answer for the same source")

// nativeTwinPhases runs BFS + PageRank from every ring source on a
// native engine over the simulated workload's graph.
func nativeTwinPhases(e *env, in *libInst) error {
	eng, err := cosparse.New(in.g, sys, cosparse.WithBackend(cosparse.NativeBackend))
	if err != nil {
		return err
	}
	var agg phaseAgg
	for _, src := range in.sources {
		c := &caller{job: -1}
		t0 := time.Now()
		if err := jobSimPaper(&libInst{eng: eng}, c, src); err != nil {
			return err
		}
		agg.addJob(src, ms(time.Since(t0)), c.reports[0].Iterations, c.reports[1].Iterations)
	}
	agg.emitWalls(e)
	return nil
}

// coldShareCheck measures how much of a cold job is the cold part: the
// job's calls are repeated warm on the engine the job built.
func coldShareCheck(e *env, in *libInst) error {
	var shares []float64
	for _, src := range in.sources[:min(3, len(in.sources))] {
		t0 := time.Now()
		eng, err := cosparse.New(in.g, sys, cosparse.WithBackend(cosparse.NativeBackend))
		if err != nil {
			return err
		}
		if err := coldCalls(eng, &caller{job: -1}, src); err != nil {
			return err
		}
		cold := time.Since(t0)
		t0 = time.Now()
		if err := coldCalls(eng, &caller{job: -1}, src); err != nil {
			return err
		}
		warm := time.Since(t0)
		shares = append(shares, 1-warm.Seconds()/cold.Seconds())
	}
	share := median(shares)
	e.check("lib-cold-dvcsr.cold_share", share, share >= 0.5, ">= 0.5")
	return nil
}

func designChecksLib(e *env, p *phaseAgg, p50 float64) {
	switch e.cfg.Workload {
	case "lib-pr-dense":
		share := (p.kernelMs + p.mergeMs) / float64(p.jobs) / p50
		e.check("lib-pr-dense.kernel_merge_share_of_p50", share, share >= 0.85, ">= 0.85")
	case "lib-traverse-sparse":
		r := e.res.Metrics["runtime.reconfigs_per_job"]
		e.check("lib-traverse-sparse.reconfigs_per_job", r, r >= 1, ">= 1")
	}
}
