package runtime

// Iteration checkpointing: binary snapshots of the driver's live state,
// taken every K iterations and restorable into a later run so a crashed
// or killed job resumes mid-algorithm with a report bit-identical to an
// uninterrupted run.
//
// What must be captured for bit-identity, beyond the obvious per-vertex
// value array and frontier:
//
//   - LastSet, the frontier currently scattered into the driver's
//     persistent dense IP buffer. FrontierDense charges cycles for
//     clearing the previous scatter and writing the new one, so a
//     resumed run must rebuild the buffer functionally (free) and hand
//     the kernel the same clear-set — otherwise ConvCycles diverge.
//   - The previous iteration's Decision. The Reconfig flag (and its
//     ReconfigCycles charge) is "this iteration differs from the last",
//     which crosses the checkpoint boundary.
//   - The report accumulator (cycles, wall, energy, sim.Stats, trace
//     ring contents). EnergyJ is a float64 running sum; seeding the
//     resumed sum with the checkpointed partial preserves the exact
//     addition order of the uninterrupted run.
//
// Algorithm-specific convergence state rides in Aux/AuxInt: BFS and BC
// levels, and BC's σ array in a δ-lane checkpoint.
//
// The wire format is defensive: magic + version header, a CRC32 over
// the body, and a bounds-checked decoder that returns errors (never
// panics) on truncated frames, hostile lengths, or version skew — the
// contract fuzzed by FuzzDecodeCheckpoint.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"cosparse/internal/matrix"
	"cosparse/internal/sim"
)

// Checkpoint magic/version. Bump checkpointVersion on any layout
// change: decode rejects mismatches cleanly instead of misreading.
// Version 2: sim.Stats is three int64 counters shorter than in version 1.
// Version 3: the Phase and PhaseLevel fields are gone (BC checkpoints
// are ordinary lane checkpoints).
const (
	checkpointMagic   uint32 = 0x43534b31 // "CSK1"
	checkpointVersion uint16 = 3
)

// Checkpoint is a restorable snapshot of a run at an iteration
// boundary: everything the driver needs to continue from Iter as if it
// had never stopped.
type Checkpoint struct {
	// Algo is the run's algorithm name ("BFS", "PR", "BC", ...);
	// resume refuses a checkpoint taken by a different algorithm.
	Algo string
	// Tag is caller-owned run identity (the service stores its job id);
	// the runtime only carries it.
	Tag string
	// N is the vertex count the snapshot was taken against.
	N int32
	// Iter is the next iteration to execute.
	Iter int32

	// Vals is the persistent per-vertex value array.
	Vals matrix.Dense
	// Frontier is the active set for the next iteration (nil for
	// dense-frontier algorithms).
	Frontier *matrix.SparseVec
	// LastSet is the sparse vector currently scattered into the IP
	// dense-frontier buffer (nil if no IP iteration has run).
	LastSet *matrix.SparseVec
	// Aux / AuxInt carry algorithm convergence state: BC's σ, present
	// only in a δ-lane checkpoint; BFS and BC levels.
	Aux    matrix.Dense
	AuxInt []int32

	// HavePrev records whether a previous iteration's decision exists;
	// PrevUseIP/PrevHW reconstruct it for the Reconfig flag.
	HavePrev  bool
	PrevUseIP bool
	PrevHW    int32

	// Report accumulator at the checkpoint boundary.
	TotalCycles  int64
	TotalWallNs  int64
	EnergyJ      float64
	Stats        sim.Stats
	TotalIters   int32
	DroppedIters int32
	Trace        []IterStat
}

// CheckpointConfig rides on a context into the driver (see
// ContextWithCheckpoint): Sink receives a snapshot every Every
// completed iterations; Resume, when set, is applied before the first
// iteration.
type CheckpointConfig struct {
	// Every is the checkpoint interval in iterations (<= 0 disables
	// periodic snapshots; Resume still applies).
	Every int
	// Sink persists one snapshot. A non-nil error stops the run like a
	// failed IterHook: the partial report is returned with the wrapped
	// error. The Checkpoint and everything it references is owned by
	// the sink (the driver hands over fresh clones).
	Sink func(*Checkpoint) error
	// Resume, when non-nil, restores the run from the snapshot instead
	// of starting fresh. The driver validates Algo and N.
	Resume *Checkpoint
}

type checkpointCtxKey struct{}

// ContextWithCheckpoint attaches cfg to ctx for the driver to pick up.
// A nil cfg detaches any inherited config.
func ContextWithCheckpoint(ctx context.Context, cfg *CheckpointConfig) context.Context {
	return context.WithValue(ctx, checkpointCtxKey{}, cfg)
}

// CheckpointFromContext returns the attached config, or nil.
func CheckpointFromContext(ctx context.Context) *CheckpointConfig {
	cfg, _ := ctx.Value(checkpointCtxKey{}).(*CheckpointConfig)
	return cfg
}

// cloneSparse deep-copies a sparse vector, passing nil through.
func cloneSparse(v *matrix.SparseVec) *matrix.SparseVec {
	if v == nil {
		return nil
	}
	return v.Clone()
}

// ---------- encoding ----------

// ckpEnc accumulates the little-endian body.
type ckpEnc struct{ b []byte }

func (e *ckpEnc) u8(v uint8)   { e.b = append(e.b, v) }
func (e *ckpEnc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *ckpEnc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *ckpEnc) i32(v int32)  { e.u32(uint32(v)) }
func (e *ckpEnc) i64(v int64)  { e.u64(uint64(v)) }
func (e *ckpEnc) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *ckpEnc) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *ckpEnc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}
func (e *ckpEnc) f32s(v []float32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(math.Float32bits(x))
	}
}
func (e *ckpEnc) i32s(v []int32) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.u32(uint32(x))
	}
}

// stats writes sim.Stats as a length-prefixed binary.Write chunk: the
// struct is all int64, and the explicit length turns any future field
// addition into a clean version error at decode time.
func (e *ckpEnc) stats(st *sim.Stats) {
	var buf bytes.Buffer
	_ = binary.Write(&buf, binary.LittleEndian, st)
	e.u32(uint32(buf.Len()))
	e.b = append(e.b, buf.Bytes()...)
}

func (e *ckpEnc) sparse(v *matrix.SparseVec) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.u32(uint32(v.N))
	e.i32s(v.Idx)
	e.f32s(v.Val)
}

func (e *ckpEnc) dense(v matrix.Dense) {
	if v == nil {
		e.u8(0)
		return
	}
	e.u8(1)
	e.f32s(v)
}

// EncodeCheckpoint serializes cp with a magic/version header and a
// CRC32 (IEEE) over the body, so torn or bit-rotted snapshot files are
// detected and discarded at restore time.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	var e ckpEnc
	e.str(cp.Algo)
	e.str(cp.Tag)
	e.i32(cp.N)
	e.i32(cp.Iter)
	e.dense(cp.Vals)
	e.sparse(cp.Frontier)
	e.sparse(cp.LastSet)
	e.dense(cp.Aux)
	if cp.AuxInt == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.i32s(cp.AuxInt)
	}
	e.bool(cp.HavePrev)
	e.bool(cp.PrevUseIP)
	e.i32(cp.PrevHW)
	e.i64(cp.TotalCycles)
	e.i64(cp.TotalWallNs)
	e.f64(cp.EnergyJ)
	e.stats(&cp.Stats)
	e.i32(cp.TotalIters)
	e.i32(cp.DroppedIters)
	e.u32(uint32(len(cp.Trace)))
	for i := range cp.Trace {
		encodeIterStat(&e, &cp.Trace[i])
	}

	body := e.b
	out := make([]byte, 0, 16+len(body))
	out = binary.LittleEndian.AppendUint32(out, checkpointMagic)
	out = binary.LittleEndian.AppendUint16(out, checkpointVersion)
	out = binary.LittleEndian.AppendUint16(out, 0) // flags, reserved
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return append(out, body...)
}

func encodeIterStat(e *ckpEnc, st *IterStat) {
	e.i32(int32(st.Iter))
	e.i32(int32(st.FrontierNNZ))
	e.f64(st.Density)
	e.bool(st.Decision.UseIP)
	e.i32(int32(st.Decision.HW))
	e.bool(st.Reconfig)
	e.i64(st.KernelCycles)
	e.i64(st.MergeCycles)
	e.i64(st.ConvCycles)
	e.i64(st.TotalCycles)
	e.f64(st.EnergyJ)
	e.stats(&st.Stats)
	e.i64(int64(st.KernelWall))
	e.i64(int64(st.MergeWall))
	e.i64(int64(st.ConvWall))
	e.i64(int64(st.TotalWall))
}

// ---------- decoding ----------

// ckpDec is a bounds-checked cursor; the first failure sticks and every
// later read returns zero values, so decode logic stays linear.
type ckpDec struct {
	b   []byte
	off int
	err error
}

func (d *ckpDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *ckpDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("runtime: checkpoint truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

func (d *ckpDec) u8() uint8 {
	s := d.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}
func (d *ckpDec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (d *ckpDec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (d *ckpDec) i32() int32    { return int32(d.u32()) }
func (d *ckpDec) i64() int64    { return int64(d.u64()) }
func (d *ckpDec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *ckpDec) boolean() bool { return d.u8() != 0 }
func (d *ckpDec) str() string {
	n := d.u32()
	// A string longer than the remaining buffer is hostile; take
	// rejects it without allocating.
	return string(d.take(int(n)))
}

// count validates an element count against the bytes remaining (elem
// bytes each) before any allocation, so hostile lengths cannot force
// huge allocs.
func (d *ckpDec) count(elem int) int {
	n := d.u32()
	if d.err != nil {
		return 0
	}
	if int64(n)*int64(elem) > int64(len(d.b)-d.off) {
		d.fail("runtime: checkpoint corrupt: count %d exceeds remaining %d bytes", n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

func (d *ckpDec) f32s() []float32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		if d.err != nil {
			return nil
		}
		return []float32{}
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	return out
}

func (d *ckpDec) i32s() []int32 {
	n := d.count(4)
	if d.err != nil || n == 0 {
		if d.err != nil {
			return nil
		}
		return []int32{}
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = d.i32()
	}
	return out
}

func (d *ckpDec) stats() sim.Stats {
	var st sim.Stats
	n := d.count(1)
	chunk := d.take(n)
	if d.err != nil {
		return st
	}
	if binary.Size(&st) != n {
		d.fail("runtime: checkpoint stats block is %d bytes, this build expects %d (version skew)", n, binary.Size(&st))
		return st
	}
	_ = binary.Read(bytes.NewReader(chunk), binary.LittleEndian, &st)
	return st
}

func (d *ckpDec) sparse() *matrix.SparseVec {
	if d.u8() == 0 {
		return nil
	}
	n := int(d.u32())
	idx := d.i32s()
	val := d.f32s()
	if d.err != nil {
		return nil
	}
	if len(idx) != len(val) {
		d.fail("runtime: checkpoint corrupt: sparse vector with %d indices but %d values", len(idx), len(val))
		return nil
	}
	for _, ix := range idx {
		if ix < 0 || int(ix) >= n {
			d.fail("runtime: checkpoint corrupt: sparse index %d out of range [0,%d)", ix, n)
			return nil
		}
	}
	return &matrix.SparseVec{N: n, Idx: idx, Val: val}
}

func (d *ckpDec) dense() matrix.Dense {
	if d.u8() == 0 {
		return nil
	}
	return matrix.Dense(d.f32s())
}

// DecodeCheckpoint parses an EncodeCheckpoint frame. Truncated input,
// hostile lengths, CRC mismatches and version skew all return errors;
// the decoder never panics (FuzzDecodeCheckpoint enforces this).
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("runtime: checkpoint too short: %d bytes", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != checkpointMagic {
		return nil, fmt.Errorf("runtime: not a checkpoint (magic %#08x)", m)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != checkpointVersion {
		return nil, fmt.Errorf("runtime: checkpoint version %d, this build reads version %d", v, checkpointVersion)
	}
	bodyLen := binary.LittleEndian.Uint32(data[8:12])
	if int64(bodyLen) != int64(len(data)-16) {
		return nil, fmt.Errorf("runtime: checkpoint body length %d does not match %d payload bytes", bodyLen, len(data)-16)
	}
	body := data[16:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.LittleEndian.Uint32(data[12:16]) {
		return nil, fmt.Errorf("runtime: checkpoint CRC mismatch (stored %#08x, computed %#08x)",
			binary.LittleEndian.Uint32(data[12:16]), sum)
	}

	d := &ckpDec{b: body}
	cp := &Checkpoint{}
	cp.Algo = d.str()
	cp.Tag = d.str()
	cp.N = d.i32()
	cp.Iter = d.i32()
	cp.Vals = d.dense()
	cp.Frontier = d.sparse()
	cp.LastSet = d.sparse()
	cp.Aux = d.dense()
	if d.u8() != 0 {
		cp.AuxInt = d.i32s()
	}
	cp.HavePrev = d.boolean()
	cp.PrevUseIP = d.boolean()
	cp.PrevHW = d.i32()
	cp.TotalCycles = d.i64()
	cp.TotalWallNs = d.i64()
	cp.EnergyJ = d.f64()
	cp.Stats = d.stats()
	cp.TotalIters = d.i32()
	cp.DroppedIters = d.i32()
	nTrace := d.count(58) // conservative minimum encoded IterStat size
	if d.err == nil && nTrace > 0 {
		cp.Trace = make([]IterStat, 0, nTrace)
		for i := 0; i < nTrace && d.err == nil; i++ {
			cp.Trace = append(cp.Trace, decodeIterStat(d))
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("runtime: checkpoint has %d trailing bytes", len(body)-d.off)
	}
	if cp.N < 0 || cp.Iter < 0 || cp.TotalIters < 0 || cp.DroppedIters < 0 {
		return nil, fmt.Errorf("runtime: checkpoint corrupt: negative counters")
	}
	return cp, nil
}

func decodeIterStat(d *ckpDec) IterStat {
	var st IterStat
	st.Iter = int(d.i32())
	st.FrontierNNZ = int(d.i32())
	st.Density = d.f64()
	st.Decision.UseIP = d.boolean()
	st.Decision.HW = sim.HWConfig(d.i32())
	st.Reconfig = d.boolean()
	st.KernelCycles = d.i64()
	st.MergeCycles = d.i64()
	st.ConvCycles = d.i64()
	st.TotalCycles = d.i64()
	st.EnergyJ = d.f64()
	st.Stats = d.stats()
	st.KernelWall = time.Duration(d.i64())
	st.MergeWall = time.Duration(d.i64())
	st.ConvWall = time.Duration(d.i64())
	st.TotalWall = time.Duration(d.i64())
	return st
}

// snapshot assembles a checkpoint of the driver's state at the top of
// iteration `iter`, cloning every mutable structure so the sink can own
// the result.
func (f *Framework) snapshot(name string, iter int, vals matrix.Dense,
	frontier, lastSet *matrix.SparseVec, havePrev bool, prev Decision,
	rep *Report, trace *iterRing) *Checkpoint {
	cp := &Checkpoint{
		Algo:         name,
		N:            int32(f.N()),
		Iter:         int32(iter),
		Vals:         vals.Clone(),
		Frontier:     cloneSparse(frontier),
		LastSet:      cloneSparse(lastSet),
		HavePrev:     havePrev,
		PrevUseIP:    prev.UseIP,
		PrevHW:       int32(prev.HW),
		TotalCycles:  rep.TotalCycles,
		TotalWallNs:  int64(rep.TotalWall),
		EnergyJ:      rep.EnergyJ,
		Stats:        rep.Stats,
		TotalIters:   int32(trace.total),
		DroppedIters: int32(trace.dropped),
		Trace:        append([]IterStat(nil), trace.slice()...),
	}
	return cp
}
