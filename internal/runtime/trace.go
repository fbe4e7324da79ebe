package runtime

// Bounded per-iteration tracing. Every run records its IterStats into a
// ring buffer of DefaultTraceCap entries, so long-running jobs (many
// PageRank iterations on a big graph) keep the most recent window of
// the Fig. 9 decision trace without letting Report.Iters grow with the
// iteration count. The Report still carries exact totals
// (TotalIters, DroppedIters), so consumers can tell a complete trace
// from a truncated one.

// DefaultTraceCap is the per-run iteration-trace bound every engine
// uses. 4096 iterations × ~200 B/entry keeps the worst case under a
// megabyte while covering every algorithm in the suite end to end
// (the longest calibrated run is ~4·|V| BFS levels on the small
// graphs).
const DefaultTraceCap = 4096

// ringCap normalizes Options.traceCap: 0 means DefaultTraceCap,
// negative means unbounded.
func (o Options) ringCap() int {
	if o.traceCap == 0 {
		return DefaultTraceCap
	}
	if o.traceCap < 0 {
		return 0 // unbounded
	}
	return o.traceCap
}

// iterRing collects IterStats with a bounded memory footprint, keeping
// the most recent capN entries (capN <= 0 keeps everything).
type iterRing struct {
	capN    int
	buf     []IterStat
	start   int // index of the oldest entry when the ring has wrapped
	total   int
	dropped int
}

func newIterRing(capN int) *iterRing { return &iterRing{capN: capN} }

func (r *iterRing) push(st IterStat) {
	r.total++
	if r.capN <= 0 || len(r.buf) < r.capN {
		r.buf = append(r.buf, st)
		return
	}
	r.buf[r.start] = st
	r.start = (r.start + 1) % r.capN
	r.dropped++
}

// preload seeds the ring from a checkpoint: entries are the retained
// window in iteration order, total/dropped the exact counters at the
// snapshot. If the window exceeds the ring's own bound (the cap
// changed between runs), only the most recent capN entries survive and
// the overflow is counted as dropped, mirroring push semantics.
func (r *iterRing) preload(entries []IterStat, total, dropped int) {
	if r.capN > 0 && len(entries) > r.capN {
		dropped += len(entries) - r.capN
		entries = entries[len(entries)-r.capN:]
	}
	r.buf = append([]IterStat(nil), entries...)
	r.start = 0
	r.total = total
	r.dropped = dropped
}

// slice returns the retained entries in iteration order. The returned
// slice aliases the ring only when it never wrapped.
func (r *iterRing) slice() []IterStat {
	if r.start == 0 {
		return r.buf
	}
	out := make([]IterStat, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}
