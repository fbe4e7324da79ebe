package sim

// Stream buffers: the non-polluting sequential-load path.
//
// The IP kernel's dominant traffic is perfectly sequential (row-major
// COO triples, frontier compaction arrays). Real implementations of
// such kernels stream this data through stride prefetchers with
// stream buffers / non-temporal hints so that (a) latency is hidden by
// fetching several lines ahead and (b) the stream does not wash the
// reusable working set (the frontier vector, the merge heap) out of
// the caches. Modelling that path explicitly — per-PE stream buffers
// that fetch up to MSHRs lines ahead straight from HBM, bypassing the
// RCaches — is what makes IP bandwidth-bound and OP latency-bound,
// exactly the regime the paper's Figs. 4–6 explore.
//
// Proc.LoadStream is the kernel-facing API; randomly-accessed data
// keeps using Proc.Load (the cacheable path).

type streamBuf struct {
	valid    bool
	lastLine uint64
	next     uint64 // next line index to fetch ahead
	low      uint64 // lowest line index that may still be resident

	// ready holds the ready time of each line fetched in [low, next),
	// indexed by line modulo its power-of-two length n. A call for line
	// L fetches no line above L+MSHRs and ends with low >= L-2, and a
	// line below low is never looked up again. So a fetch that reuses a
	// slot displaces a line no higher than L+MSHRs-n, which the same
	// call retires before anything reads it, provided n >= MSHRs+3
	// (streamRingLen); the call's own lookups are of L and of lines not
	// yet fetched.
	ready []streamSlot
}

// streamSlot is one ring entry: tag is the line index plus one, so the
// zero value is empty.
type streamSlot struct {
	tag   uint64
	ready int64
}

// streamBufs per PE; two concurrent streams cover every kernel here
// (e.g. the OP setup walks frontier indices and values in lockstep),
// four leaves margin.
const numStreamBufs = 4

// streamRingLen is the ready ring length for a fetch window of mshrs
// lines: the smallest power of two holding mshrs+3 lines.
func streamRingLen(mshrs int) int {
	n := 1
	for n < mshrs+3 {
		n <<= 1
	}
	return n
}

// readyAt returns the ready time of a resident line.
func (s *streamBuf) readyAt(line uint64) (int64, bool) {
	if line < s.low {
		return 0, false
	}
	e := &s.ready[line&uint64(len(s.ready)-1)]
	return e.ready, e.tag == line+1
}

// streamNear returns the stream buffer tracking lines near `line`, or
// nil.
func (p *Proc) streamNear(line uint64) *streamBuf {
	for i := range p.sbufs {
		s := &p.sbufs[i]
		if !s.valid {
			continue
		}
		d := int64(line) - int64(s.lastLine)
		if d >= -2 && d <= int64(p.m.cfg.Params.MSHRs)+2 {
			return s
		}
	}
	return nil
}

// LoadStream issues a word load on the sequential streaming path: the
// line is fetched from main memory through a stream buffer that runs up
// to MSHRs lines ahead, so a well-formed stream costs one cycle per
// word plus any bandwidth backpressure, without touching the caches.
func (p *Proc) LoadStream(addr uint64) {
	p.maybeYield()
	m := p.m
	line := m.block.div(addr)

	s := p.streamNear(line)
	if s == nil {
		// Allocate (round-robin) and start a fresh window at this line.
		s = &p.sbufs[p.sbufNext]
		p.sbufNext = (p.sbufNext + 1) % numStreamBufs
		if s.ready == nil {
			s.ready = make([]streamSlot, streamRingLen(m.cfg.Params.MSHRs))
		} else {
			clear(s.ready)
		}
		s.valid, s.lastLine, s.next, s.low = true, line, line, line
	}
	s.lastLine = line

	// Run the fetch window ahead of the consumer.
	ahead := uint64(m.cfg.Params.MSHRs)
	if s.next < line {
		s.next = line
	}
	for s.next <= line+ahead {
		if _, ok := s.readyAt(s.next); !ok {
			naddr := s.next * m.block.n
			done := m.mem.access(naddr, p.time)
			s.ready[s.next&uint64(len(s.ready)-1)] = streamSlot{tag: s.next + 1, ready: done}
			p.st.HBMLines++
			// The fetched line also lands in the L1 cache (the machine
			// has no dedicated stream storage), displacing a victim —
			// the stream-vs-vector contention of paper §III-C2.
			m.installStream(p, naddr, done)
		}
		s.next++
	}

	p.st.Loads++
	p.st.StreamLoads++
	if ready, ok := s.readyAt(line); ok && ready > p.time {
		p.st.StallCycles += ready - p.time
		p.time = ready
	} else {
		p.time++
	}
	// Retire everything below the consumer's revisit window (streamNear
	// accepts d >= -2, so line-2 and line-1 must stay resident). Moving
	// low past a line is what retires it: readyAt ignores every slot
	// below low, so a consumer that skips lines — a stride crossing, or
	// a restart inside the match window — strands nothing, and a later
	// stream that revisits those line indices never sees a stale ready
	// time.
	if line > s.low+2 {
		s.low = line - 2
	}
}
