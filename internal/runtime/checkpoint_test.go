package runtime

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"cosparse/internal/exec"
	"cosparse/internal/gen"
	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// ckptRun is one algorithm under checkpoint test: run executes it and
// returns the report plus a fingerprint of the functional result (the
// value arrays the caller would act on).
type ckptRun struct {
	name string
	run  func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32)
}

var ckptRuns = []ckptRun{
	{"BFS", func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32) {
		res, rep, err := lane0(f.BFSBatch([]context.Context{ctx}, []int32{0}))
		if err != nil {
			t.Fatalf("BFS: %v", err)
		}
		fp := make([]float32, 0, 2*len(res.Level))
		for i := range res.Level {
			fp = append(fp, float32(res.Level[i]), float32(res.Parent[i]))
		}
		return rep, fp
	}},
	{"SSSP", func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32) {
		dist, rep, err := lane0(f.SSSPBatch([]context.Context{ctx}, []int32{0}))
		if err != nil {
			t.Fatalf("SSSP: %v", err)
		}
		return rep, dist
	}},
	{"PR", func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32) {
		pr, rep, err := lane0(f.PageRankBatch([]context.Context{ctx}, 1, 10, 0.15))
		if err != nil {
			t.Fatalf("PR: %v", err)
		}
		return rep, pr
	}},
	{"CF", func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32) {
		lat, rep, err := lane0(f.CFBatch([]context.Context{ctx}, 1, 8, 0.01, 0.05))
		if err != nil {
			t.Fatalf("CF: %v", err)
		}
		return rep, lat
	}},
	{"BC", func(t *testing.T, f *Framework, ctx context.Context) (*Report, []float32) {
		bc, rep, err := f.BC(ctx, 0)
		if err != nil {
			t.Fatalf("BC: %v", err)
		}
		return rep, bc
	}},
}

func ckptFW(t *testing.T, be exec.Backend) *Framework {
	t.Helper()
	m := gen.PowerLaw(400, 3200, 0.55, gen.UniformWeight, 11)
	f, err := NewFromStore(m, Options{
		Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4},
		Backend:  be,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sameReports compares the deterministic content of two reports:
// cycles, energy, stats, counters, and every trace field except wall
// times (real on the native backend, so not replayable).
func sameReports(t *testing.T, label string, a, b *Report) {
	t.Helper()
	if a.TotalCycles != b.TotalCycles {
		t.Errorf("%s: TotalCycles %d vs %d", label, a.TotalCycles, b.TotalCycles)
	}
	if a.EnergyJ != b.EnergyJ {
		t.Errorf("%s: EnergyJ %v vs %v (must be bit-identical)", label, a.EnergyJ, b.EnergyJ)
	}
	if a.Stats != b.Stats {
		t.Errorf("%s: Stats %+v vs %+v", label, a.Stats, b.Stats)
	}
	if a.TotalIters != b.TotalIters || a.DroppedIters != b.DroppedIters {
		t.Errorf("%s: iters %d/%d vs %d/%d", label, a.TotalIters, a.DroppedIters, b.TotalIters, b.DroppedIters)
	}
	if len(a.Iters) != len(b.Iters) {
		t.Fatalf("%s: trace length %d vs %d", label, len(a.Iters), len(b.Iters))
	}
	for i := range a.Iters {
		x, y := a.Iters[i], b.Iters[i]
		if x.Iter != y.Iter || x.FrontierNNZ != y.FrontierNNZ || x.Density != y.Density ||
			x.Decision != y.Decision || x.Reconfig != y.Reconfig ||
			x.KernelCycles != y.KernelCycles || x.MergeCycles != y.MergeCycles ||
			x.ConvCycles != y.ConvCycles || x.TotalCycles != y.TotalCycles ||
			x.EnergyJ != y.EnergyJ || x.Stats != y.Stats {
			t.Errorf("%s: trace[%d] diverges:\n  ref %+v\n  got %+v", label, i, x, y)
		}
	}
}

func sameValues(t *testing.T, label string, a, b []float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: value lengths %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: value[%d] = %v vs %v (must be bit-identical)", label, i, a[i], b[i])
		}
	}
}

// TestCheckpointResumeBitIdentical is the core durability property: for
// every algorithm, on both backends, a run resumed from a mid-run
// checkpoint (round-tripped through the binary codec, as the service
// does) produces a report and result bit-identical to an uninterrupted
// run — and taking checkpoints is observationally free.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	backends := []struct {
		label string
		be    exec.Backend
	}{{"sim", nil}, {"native", exec.Native()}}
	for _, be := range backends {
		for _, cr := range ckptRuns {
			cr := cr
			t.Run(be.label+"/"+cr.name, func(t *testing.T) {
				// Reference: uninterrupted, no checkpointing.
				refRep, refVals := cr.run(t, ckptFW(t, be.be), context.Background())

				// Checkpointed run: identical observable behavior, and it
				// must produce at least one snapshot to resume from.
				var snaps [][]byte
				cfg := &CheckpointConfig{
					Every: 2,
					Sink: func(cp *Checkpoint) error {
						snaps = append(snaps, EncodeCheckpoint(cp))
						return nil
					},
				}
				ctx := ContextWithCheckpoint(context.Background(), cfg)
				ckRep, ckVals := cr.run(t, ckptFW(t, be.be), ctx)
				sameReports(t, "checkpointed-vs-ref", refRep, ckRep)
				sameValues(t, "checkpointed-vs-ref", refVals, ckVals)
				if len(snaps) == 0 {
					t.Fatal("no checkpoints were taken")
				}

				// Resume from a mid-run snapshot, decoding from the wire
				// format exactly as recovery does. BC's snapshots come
				// from two lanes; a δ-lane snapshot carries σ in Aux.
				lanes := map[bool]bool{}
				for _, pick := range []int{0, len(snaps) / 2, len(snaps) - 1} {
					cp, err := DecodeCheckpoint(snaps[pick])
					if err != nil {
						t.Fatalf("decode snapshot %d: %v", pick, err)
					}
					lanes[cp.Aux != nil] = true
					rctx := ContextWithCheckpoint(context.Background(),
						&CheckpointConfig{Resume: cp})
					resRep, resVals := cr.run(t, ckptFW(t, be.be), rctx)
					if !resRep.Resumed {
						t.Errorf("snapshot %d: Report.Resumed not set", pick)
					}
					sameReports(t, "resumed-vs-ref", refRep, resRep)
					sameValues(t, "resumed-vs-ref", refVals, resVals)
				}
				if cr.name == "BC" && (!lanes[false] || !lanes[true]) {
					t.Errorf("BC resumed from σ-lane snapshots %t, δ-lane snapshots %t; want both", lanes[false], lanes[true])
				}
			})
		}
	}
}

// TestCheckpointResumeValidation: a checkpoint from a different
// algorithm or a different graph size must be refused, not misapplied.
func TestCheckpointResumeValidation(t *testing.T) {
	var snaps []*Checkpoint
	cfg := &CheckpointConfig{
		Every: 2,
		Sink:  func(cp *Checkpoint) error { snaps = append(snaps, cp); return nil },
	}
	ctx := ContextWithCheckpoint(context.Background(), cfg)
	if _, _, err := lane0(ckptFW(t, nil).PageRankBatch([]context.Context{ctx}, 1, 6, 0.15)); err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no checkpoints")
	}
	cp := snaps[0]

	// Wrong algorithm.
	rctx := ContextWithCheckpoint(context.Background(), &CheckpointConfig{Resume: cp})
	if _, _, err := lane0(ckptFW(t, nil).SSSPBatch([]context.Context{rctx}, []int32{0})); err == nil ||
		!strings.Contains(err.Error(), "cannot resume") {
		t.Errorf("SSSP accepted a PR checkpoint: %v", err)
	}

	// Wrong vertex count.
	small := gen.PowerLaw(50, 300, 0.55, gen.UniformWeight, 3)
	f, err := NewFromStore(small, Options{Geometry: sim.Geometry{Tiles: 2, PEsPerTile: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := lane0(f.PageRankBatch([]context.Context{rctx}, 1, 6, 0.15)); err == nil ||
		!strings.Contains(err.Error(), "vertices") {
		t.Errorf("PR accepted a checkpoint for a different graph: %v", err)
	}
}

// TestCheckpointSinkErrorStopsRun: a failing sink stops the run with a
// partial report, mirroring the IterHook contract.
func TestCheckpointSinkErrorStopsRun(t *testing.T) {
	cfg := &CheckpointConfig{
		Every: 2,
		Sink:  func(*Checkpoint) error { return context.DeadlineExceeded },
	}
	ctx := ContextWithCheckpoint(context.Background(), cfg)
	_, rep, err := lane0(ckptFW(t, nil).PageRankBatch([]context.Context{ctx}, 1, 10, 0.15))
	if err == nil || !strings.Contains(err.Error(), "checkpoint at iteration") {
		t.Fatalf("sink error not surfaced: %v", err)
	}
	if rep == nil || rep.TotalIters != 2 {
		t.Fatalf("partial report should cover 2 iterations, got %+v", rep)
	}
}

// ---------- codec edge cases ----------

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Algo: "PR", Tag: "j42", N: 5, Iter: 3,
		Vals:     matrix.Dense{1, 2, 3, 4, 5},
		Frontier: &matrix.SparseVec{N: 5, Idx: []int32{1, 3}, Val: []float32{0.5, 0.25}},
		LastSet:  &matrix.SparseVec{N: 5, Idx: []int32{0}, Val: []float32{1}},
		Aux:      matrix.Dense{9, 8, 7, 6, 5},
		AuxInt:   []int32{0, 1, -1, 2, 3},
		HavePrev: true, PrevUseIP: true, PrevHW: 1,
		TotalCycles: 12345, TotalWallNs: 678, EnergyJ: 0.125,
		TotalIters: 3, DroppedIters: 0,
		Trace: []IterStat{{Iter: 0, FrontierNNZ: 1, Density: 0.2,
			Decision: Decision{UseIP: true, HW: 1}, KernelCycles: 10, TotalCycles: 10}},
	}
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := sampleCheckpoint()
	got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algo != cp.Algo || got.Tag != cp.Tag || got.N != cp.N || got.Iter != cp.Iter {
		t.Errorf("header fields: %+v", got)
	}
	sameValues(t, "Vals", cp.Vals, got.Vals)
	sameValues(t, "Aux", cp.Aux, got.Aux)
	if len(got.AuxInt) != len(cp.AuxInt) {
		t.Fatalf("AuxInt length %d", len(got.AuxInt))
	}
	for i := range cp.AuxInt {
		if got.AuxInt[i] != cp.AuxInt[i] {
			t.Errorf("AuxInt[%d] = %d", i, got.AuxInt[i])
		}
	}
	if got.Frontier == nil || got.Frontier.N != 5 || got.Frontier.Idx[1] != 3 {
		t.Errorf("Frontier = %+v", got.Frontier)
	}
	if !got.HavePrev || !got.PrevUseIP || got.PrevHW != 1 {
		t.Errorf("prev decision: %+v", got)
	}
	if got.TotalCycles != cp.TotalCycles || got.EnergyJ != cp.EnergyJ || got.TotalWallNs != cp.TotalWallNs {
		t.Errorf("accumulators: %+v", got)
	}
	if len(got.Trace) != 1 || got.Trace[0].KernelCycles != 10 {
		t.Errorf("trace: %+v", got.Trace)
	}

	// Nil optionals survive the trip as nil.
	cp2 := &Checkpoint{Algo: "SSSP", N: 3, Vals: matrix.Dense{1, 2, 3}}
	got2, err := DecodeCheckpoint(EncodeCheckpoint(cp2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.Frontier != nil || got2.LastSet != nil || got2.Aux != nil || got2.AuxInt != nil {
		t.Errorf("nil optionals materialized: %+v", got2)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	valid := EncodeCheckpoint(sampleCheckpoint())

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		f(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "too short"},
		{"short", valid[:10], "too short"},
		{"bad-magic", mutate(func(b []byte) { b[0] ^= 0xFF }), "not a checkpoint"},
		{"version-skew", mutate(func(b []byte) { b[4]++ }), "version"},
		{"version-1", mutate(func(b []byte) { b[4], b[5] = 1, 0 }), "checkpoint version 1, this build reads version 3"},
		{"version-2", mutate(func(b []byte) { b[4], b[5] = 2, 0 }), "checkpoint version 2, this build reads version 3"},
		{"length-mismatch", valid[:len(valid)-4], "length"},
		{"crc", mutate(func(b []byte) { b[len(b)-1] ^= 0x01 }), "CRC"},
		{"trailing", append(append([]byte(nil), mutate(func(b []byte) {})...), 0xAA), "length"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := DecodeCheckpoint(tc.data)
			if err == nil {
				t.Fatalf("accepted %s input: %+v", tc.name, cp)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointDecodeHostileCounts: a frame whose body claims huge
// element counts must fail cleanly without attempting the allocation.
func TestCheckpointDecodeHostileCounts(t *testing.T) {
	valid := EncodeCheckpoint(sampleCheckpoint())
	body := append([]byte(nil), valid[16:]...)
	// The first field is Algo's length prefix; claim 4 GiB of string.
	body[0], body[1], body[2], body[3] = 0xFF, 0xFF, 0xFF, 0xFF
	frame := rebuildFrame(body)
	if _, err := DecodeCheckpoint(frame); err == nil {
		t.Fatal("hostile string length accepted")
	}
}

// rebuildFrame re-headers a (possibly mutated) body with a fresh
// length and CRC so decode reaches the body parser.
func rebuildFrame(body []byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, checkpointMagic)
	out = binary.LittleEndian.AppendUint16(out, checkpointVersion)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}
