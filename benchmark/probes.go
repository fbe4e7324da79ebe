package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosparse"
	"cosparse/internal/batch"
	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/kernels"
	"cosparse/internal/matrix"
	crt "cosparse/internal/runtime"
	"cosparse/internal/semiring"
	"cosparse/internal/sim"
	"cosparse/internal/store"
)

// layerProbes times direct calls into each layer on the workload's own
// graph, after the window has closed. g is the graph the workload ran
// on; the same matrix is regenerated at the layer level, because the
// public Graph does not hand out its store.
func layerProbes(e *env, g *cosparse.Graph, vertices, edges int) error {
	n, edges := e.size(vertices, edges)
	root := e.tr.begin(0, -1, "probes")
	defer e.tr.end(root)
	probe := func(name string, f func() error) error {
		id := e.tr.begin(root, -1, "probe."+name)
		defer e.tr.end(id)
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	coo := gen.PowerLaw(n, edges, powerLawSkew, gen.Pattern, e.cfg.Seed)
	if coo.NNZ() != g.NumEdges() {
		return fmt.Errorf("regenerated matrix has %d elements, the workload's graph %d", coo.NNZ(), g.NumEdges())
	}
	var streamGBps float64
	steps := []struct {
		name string
		f    func() error
	}{
		{"host", func() (err error) { streamGBps, err = probeHost(e); return }},
		{"matrix", func() error { return probeMatrix(e, coo) }},
		{"kernels", func() error { return probeKernels(e, coo, streamGBps) }},
		{"runtime", func() error { return probeRuntime(e, g) }},
		{"store", func() error { return probeStore(e) }},
		{"batch", func() error { return probeBatch(e) }},
	}
	for _, s := range steps {
		if err := probe(s.name, s.f); err != nil {
			return err
		}
	}
	return nil
}

// timeMedian runs f reps times and returns the median wall in seconds.
func timeMedian(reps int, f func()) float64 {
	var s []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		s = append(s, time.Since(t0).Seconds())
	}
	return median(s)
}

func probeHost(e *env) (float64, error) {
	llc := llcBytes()
	arr := streamArrayBytes(llc)
	if e.cfg.Tiny {
		arr = 1 << 20
	}
	gbps := streamTriadGBps(arr)
	e.set("host.stream_gbps", gbps, 3)
	e.note("STREAM triad: 3 float32 arrays of %d MiB each, LLC %d MiB, %d goroutines: %.2f GB/s",
		arr>>20, llc>>20, runtime.GOMAXPROCS(0), gbps)
	us, err := fsyncProbeUs(e.dataDir, 10*e.reps(3))
	if err != nil {
		return 0, err
	}
	e.set("host.fsync_us_p50", median(us), len(us))
	e.note("fsync probe: 4 KiB write+fsync on %s (%s): p50 %.0f us", e.dataDir, e.res.Meta.FSType, median(us))
	return gbps, nil
}

func probeMatrix(e *env, coo *matrix.COO) error {
	nnz := float64(coo.NNZ())
	reps := e.reps(3)
	var d *matrix.DVCSR
	var err error
	enc := timeMedian(reps, func() { d, err = matrix.EncodeDVCSR(coo) })
	if err != nil {
		return err
	}
	e.set("matrix.encode_dvcsr_ms", enc*1e3, reps)
	e.set("matrix.bytes_per_nnz_csr", float64(coo.ResidentBytes())/nnz, 1)
	e.set("matrix.bytes_per_nnz_dvcsr", float64(d.ResidentBytes())/nnz, 1)

	// Decoders are rated by the 12 bytes per element they hand on.
	rows, cols := coo.Dims()
	var sink int64
	emit := func(r, c int32, v float32) { sink += int64(r) + int64(c) }
	sec := timeMedian(reps, func() { d.DecodeRows(0, int32(rows), emit) })
	e.set("matrix.decode_rows_mb_per_s", 12*nnz/1e6/sec, reps)
	cc, err := matrix.EncodeDVCCSC(coo)
	if err != nil {
		return err
	}
	sec = timeMedian(reps, func() { cc.DecodeCols(0, int32(cols), emit) })
	e.set("matrix.decode_cols_mb_per_s", 12*nnz/1e6/sec, reps)
	if sink == 0 && nnz > 1 {
		return fmt.Errorf("decoders emitted nothing")
	}
	e.set("matrix.cscof_ms", timeMedian(reps, func() { matrix.CSCOf(coo) })*1e3, reps)
	return nil
}

func identity(n int, v float32) matrix.Dense {
	d := make(matrix.Dense, n)
	for i := range d {
		d[i] = v
	}
	return d
}

func probeKernels(e *env, coo *matrix.COO, streamGBps float64) error {
	geom := sim.Geometry{Tiles: sys.Tiles, PEsPerTile: sys.PEsPerTile}
	cfg := sim.NewConfig(geom, sim.SC)
	vblock := sim.NewConfig(geom, sim.SCS).SPMWordsPerTile()
	be := exec.Native()
	n, _ := coo.Dims()
	nnz := float64(coo.NNZ())
	deg := matrix.OutDegreesOf(coo)
	reps := e.reps(5)

	// Materialisation is timed from the compressed store: that is the
	// decode the cold path pays.
	d, err := matrix.EncodeDVCSR(coo)
	if err != nil {
		return err
	}
	e.set("kernels.materialize_ip_ms", timeMedian(e.reps(3), func() {
		kernels.NewIPPartition(d, geom.TotalPEs(), vblock, kernels.BalanceNNZ).Materialize()
	})*1e3, e.reps(3))
	opFromDV := kernels.NewOPPartition(d, geom.Tiles, kernels.BalanceNNZ)
	t0 := time.Now()
	opFromDV.Materialize()
	e.set("kernels.materialize_op_ms", ms(time.Since(t0)), 1)

	// Inner product, dense frontier, PageRank semiring.
	ip := kernels.NewIPPartition(coo, geom.TotalPEs(), vblock, kernels.BalanceNNZ)
	ip.Materialize()
	pr := kernels.Operand{Ring: semiring.PR(), Ctx: semiring.Ctx{Alpha: 0.15}, Deg: deg}
	x := identity(n, 1/float32(n))
	var contrib matrix.Dense
	be.IP(cfg, ip, x, pr) // untimed: first touch
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ipSec := timeMedian(reps, func() { contrib, _ = be.IP(cfg, ip, x, pr) })
	runtime.ReadMemStats(&m1)
	e.set("kernels.ip_ns_per_edge", ipSec*1e9/nnz, reps)
	e.set("kernels.ip_alloc_bytes_per_call", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(reps), reps)
	// Computed, not measured: the 12-byte (row, col, value) triple, a
	// 4-byte gather each from the frontier and the degree array, and
	// the output vector written once and initialised once.
	bytesPerEdge := 12 + 4 + 4 + 8*float64(n)/nnz
	e.set("kernels.ip_bytes_per_edge", bytesPerEdge, 1)
	e.set("kernels.ip_stream_frac", bytesPerEdge*nnz/ipSec/(streamGBps*1e9), reps)

	// The merge writes into its arguments, so each repetition gets
	// copies; the backend's own clock leaves the copying out.
	var mergeNs []float64
	for r := 0; r < reps; r++ {
		_, _, res := be.MergeDense(cfg, contrib.Clone(), x.Clone(), pr)
		mergeNs = append(mergeNs, float64(res.Wall.Nanoseconds()))
	}
	e.set("kernels.merge_dense_ns_per_vertex", median(mergeNs)/float64(n), reps)

	// Eight fused PPR lanes over one traversal.
	const lanes = 8
	xs := make([]matrix.Dense, lanes)
	ops := make([]kernels.Operand, lanes)
	for l := range xs {
		seed := int32(l * n / lanes)
		xs[l] = identity(n, 0)
		xs[l][seed] = 1
		ops[l] = kernels.Operand{Ring: semiring.PPR(), Ctx: semiring.Ctx{Alpha: 0.15, Seed: seed}, Deg: deg}
	}
	be.IPMulti(cfg, ip, xs, ops)
	multiSec := timeMedian(e.reps(3), func() { be.IPMulti(cfg, ip, xs, ops) })
	e.set("kernels.ip_multi8_ns_per_edge_lane", multiSec*1e9/nnz/lanes, e.reps(3))

	// Outer product at the frontiers a BFS from the highest-degree
	// vertex really produces, taking the ones the runtime sends to OP.
	var frontiers []*matrix.SparseVec
	fw, err := crt.NewFromStore(coo, crt.Options{
		Geometry: geom, Backend: be,
		OnIteration: func(_ crt.IterStat, next *matrix.SparseVec) {
			if next != nil && next.NNZ() > 0 {
				frontiers = append(frontiers, next.Clone())
			}
		},
	})
	if err != nil {
		return err
	}
	src := int32(0)
	for v := range deg {
		if deg[v] > deg[src] {
			src = int32(v)
		}
	}
	frontiers = append(frontiers, &matrix.SparseVec{N: n, Idx: []int32{src}, Val: []float32{float32(src)}})
	if _, _, err := fw.BFS(src); err != nil {
		return err
	}
	op := kernels.NewOPPartition(coo, geom.Tiles, kernels.BalanceNNZ)
	op.Materialize()
	bfs := kernels.Operand{Ring: semiring.BFS()}
	pc := sim.NewConfig(geom, sim.PC)
	var opNs, smNs, fdNs []float64
	for r := 0; r < reps; r++ {
		var opWall, smWall, fdWall time.Duration
		var edgesSeen, elems, touched int
		buf := identity(n, bfs.Ring.Identity)
		var last *matrix.SparseVec
		for _, f := range frontiers {
			if fw.Decide(f.NNZ()).UseIP {
				// The runtime would convert this frontier to dense form.
				var res exec.Result
				buf, res = be.FrontierDense(cfg, buf, last, f, bfs)
				fdWall += res.Wall
				touched += f.NNZ()
				if last != nil {
					touched += last.NNZ()
				}
				last = f
				continue
			}
			out, res := be.OP(pc, op, f, bfs)
			opWall += res.Wall
			for _, v := range f.Idx {
				edgesSeen += int(deg[v])
			}
			vals := identity(n, bfs.Ring.Identity)
			_, _, mres := be.ScatterMerge(pc, out, vals, bfs)
			smWall += mres.Wall
			elems += out.NNZ()
		}
		opNs = append(opNs, float64(opWall.Nanoseconds())/float64(max(edgesSeen, 1)))
		smNs = append(smNs, float64(smWall.Nanoseconds())/float64(max(elems, 1)))
		fdNs = append(fdNs, float64(fdWall.Nanoseconds())/float64(max(touched, 1)))
	}
	e.set("kernels.op_ns_per_edge", median(opNs), reps)
	e.set("kernels.scatter_merge_ns_per_elem", median(smNs), reps)
	e.set("kernels.frontier_dense_ns_per_vertex", median(fdNs), reps)
	return nil
}

func probeRuntime(e *env, g *cosparse.Graph) error {
	var eng *cosparse.Engine
	var err error
	reps := e.reps(3)
	sec := timeMedian(reps, func() {
		eng, err = cosparse.New(g, sys, cosparse.WithBackend(cosparse.NativeBackend))
	})
	if err != nil {
		return err
	}
	e.set("runtime.new_ms", sec*1e3, reps)

	// A workload whose own jobs keep a dense frontier converts nothing;
	// its conversion row comes from one BFS on this engine instead.
	if e.res.Metrics["runtime.conv_ms_per_job"] == 0 {
		_, rep, err := eng.BFS(topDegreeSources(g, e.cfg.Seed, 1)[0])
		if err != nil {
			return err
		}
		var conv time.Duration
		for _, it := range rep.Iterations {
			conv += it.ConvWall
		}
		e.set("runtime.conv_ms_per_job", ms(conv), 1)
	}

	// A PageRank state one iteration in: the value vector plus the
	// decision and report state a resume needs.
	var cp *cosparse.Checkpoint
	ctx := cosparse.ContextWithCheckpoint(context.Background(), &cosparse.CheckpointConfig{
		Every: 1,
		Sink:  func(c *cosparse.Checkpoint) error { cp = c; return nil },
	})
	if _, _, err := eng.PageRankContext(ctx, 2, 0.15); err != nil {
		return err
	}
	if cp == nil {
		return fmt.Errorf("no checkpoint was taken")
	}
	var image []byte
	encodes := 20 * e.reps(5)
	t0 := time.Now()
	for i := 0; i < encodes; i++ {
		image = cp.Encode()
	}
	e.set("runtime.checkpoint_encode_mb_per_s", float64(len(image))*float64(encodes)/1e6/time.Since(t0).Seconds(), encodes)

	st, err := store.Open(filepath.Join(e.dataDir, "snap"), store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	sec = timeMedian(e.reps(5), func() {
		if werr := st.WriteSnapshot("j1", image); werr != nil {
			err = werr
		}
	})
	if err != nil {
		return err
	}
	e.set("store.snapshot_write_ms", sec*1e3, e.reps(5))
	return nil
}

// journalRecord is shaped like the submit record the service journals
// for a small job.
func journalRecord(i int) store.Record {
	return store.Record{
		Type: store.RecSubmit, TimeUnixNs: time.Now().UnixNano(),
		JobID:     fmt.Sprintf("j%d", i),
		Request:   json.RawMessage(`{"graph_id":"g1","algo":"bfs","source":1234,"backend":"native","timeout_ms":2000}`),
		TimeoutMS: 2000,
	}
}

func probeStore(e *env) error {
	appendUs := func(st *store.Store, n int) ([]float64, error) {
		us := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := st.Append(journalRecord(i)); err != nil {
				return nil, err
			}
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		}
		return us, nil
	}

	synced, err := store.Open(filepath.Join(e.dataDir, "wal-sync"), store.Options{})
	if err != nil {
		return err
	}
	defer synced.Close()
	us, err := appendUs(synced, 20*e.reps(3))
	if err != nil {
		return err
	}
	e.set("store.append_sync_us_p50", median(us), len(us))
	batch := make([]store.Record, 32)
	for i := range batch {
		batch[i] = journalRecord(i)
	}
	reps := e.reps(10)
	sec := timeMedian(reps, func() {
		if aerr := synced.AppendBatch(batch); aerr != nil {
			err = aerr
		}
	})
	if err != nil {
		return err
	}
	e.set("store.append_batch32_us_per_rec", sec*1e6/float64(len(batch)), reps)

	// Replay: a journal of about 4 MiB written without fsync, then the
	// time Open takes to scan it back.
	dir := filepath.Join(e.dataDir, "wal-nosync")
	unsynced, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	target := int64(4 << 20)
	if e.cfg.Tiny {
		target = 64 << 10
	}
	var written int64
	var nosync []float64
	for written < target {
		us, err := appendUs(unsynced, 256)
		if err != nil {
			unsynced.Close()
			return err
		}
		nosync = append(nosync, us...)
		written = journalBytes(dir)
	}
	if err := unsynced.Close(); err != nil {
		return err
	}
	e.set("store.append_nosync_us_p50", median(nosync), len(nosync))
	t0 := time.Now()
	reopened, err := store.Open(dir, store.Options{NoSync: true})
	sec = time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	recs, _ := reopened.Replay()
	reopened.Close()
	if len(recs) != len(nosync) {
		return fmt.Errorf("replayed %d records of %d written", len(recs), len(nosync))
	}
	e.set("store.replay_mb_per_s", float64(written)/1e6/sec, 1)
	return nil
}

// journalBytes is the size of every file in a store directory.
func journalBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, en := range entries {
		if info, err := en.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// probeBatch times the coalescer's own hand-off: a group of one, no
// gather window, a runner that delivers at once.
func probeBatch(e *env) error {
	co := batch.New(0, 1, func(_ string, lanes []*batch.Lane) {
		for _, l := range lanes {
			l.Deliver(nil, nil)
		}
	})
	n := 400 * e.reps(5)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := co.Run(context.Background(), "k", i); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	e.set("batch.rendezvous_us_p50", median(us), n)
	return nil
}
