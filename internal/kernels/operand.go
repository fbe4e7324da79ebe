package kernels

import (
	"cosparse/internal/matrix"
	"cosparse/internal/semiring"
)

// Operand bundles the inputs shared by both kernels: the semiring, its
// hyperparameter context, the source out-degrees (PR) and the previous
// iteration's destination values (SSSP, CF). It is ~250 bytes, so the
// pass bodies take it by pointer.
type Operand struct {
	Ring semiring.Semiring
	Ctx  semiring.Ctx
	Deg  []int32      // out-degree per source vertex; may be nil if !NeedsSrcDeg
	Prev matrix.Dense // previous values; may be nil if !NeedsDstVal
	// Scratch, when set, lets the native kernels keep the lane's
	// buffers across calls instead of allocating them; nil means
	// allocate per call.
	Scratch *Scratch
}

// Scratch is the native kernels' per-lane buffer set: the IP output
// and pre-pass vectors, and NativePushMerge's change bitmap (clear
// between calls). One Scratch serves one lane: the contribution vector
// NativeIPMulti returns for an operand carrying it is overwritten by
// that lane's next call, and two lanes must not share one.
type Scratch struct {
	out, y matrix.Dense
	seen   []uint32
}

// grow returns *buf resized to n elements, reallocating only when its
// capacity is short; the contents are unspecified.
func grow(buf *matrix.Dense, n int) matrix.Dense {
	if cap(*buf) < n {
		*buf = make(matrix.Dense, n)
	}
	return (*buf)[:n]
}

func (op *Operand) ctxFor(dst, src int32) semiring.Ctx {
	c := op.Ctx
	c.Src = src
	if op.Ring.NeedsDstVal {
		c.DstVal = op.Prev[dst]
	}
	if op.Ring.NeedsSrcDeg {
		c.SrcDeg = op.Deg[src]
	}
	return c
}
