package sim

// hbm models the HBM2 stack of Table II: 16 pseudo-channels, each with
// its own service queue. A 64 B line transfer occupies its channel for
// HBMLineOccupied cycles (64 B at 8 GB/s ≈ 8 ns) on top of the base
// access latency, so concurrent misses from many PEs queue per channel
// and aggregate bandwidth saturates at channels × line rate — the
// first-order behaviour that makes SpMV memory-bound.
type hbm struct {
	params   Params
	block    divisor // bytes per line
	channels divisor
	chanFree []int64
	// chanFreeW is each channel's decoupled write-drain engine: victim
	// buffer drains retire here with read priority, so they queue among
	// themselves but never delay demand fetches.
	chanFreeW []int64
	reads     int64 // line fetches (access)
	writes    int64 // writeback line transfers (writeLine*)
	// Cumulative channel queueing delay, split by direction: demand-path
	// writebacks contend for the same channels as reads, so a run can be
	// writeback-bound even when no PE ever waits on a write.
	queuedRead  int64
	queuedWrite int64
}

func newHBM(p Params) *hbm {
	return &hbm{
		params:    p,
		block:     newDivisor(p.BlockBytes),
		channels:  newDivisor(p.HBMChannels),
		chanFree:  make([]int64, p.HBMChannels),
		chanFreeW: make([]int64, p.HBMChannels),
	}
}

// channelOf maps a block address to its pseudo-channel (block-interleaved).
func (h *hbm) channelOf(addr uint64) int {
	return int(h.channels.mod(h.block.div(addr)))
}

// access services a line fetch issued at time t and returns the
// completion time.
func (h *hbm) access(addr uint64, t int64) int64 {
	h.reads++
	ch := h.channelOf(addr)
	start := t
	if h.chanFree[ch] > start {
		start = h.chanFree[ch]
	}
	h.queuedRead += start - t
	h.chanFree[ch] = start + h.params.HBMLineOccupied
	return start + h.params.HBMBaseLatency + h.params.HBMLineOccupied
}

// writeLine books channel occupancy for a writeback without anyone
// waiting on the result. The queueing delay the writeback absorbs
// before its channel frees up is still real bandwidth pressure, so it
// is accounted separately from read queueing.
func (h *hbm) writeLine(addr uint64, t int64) {
	h.writes++
	ch := h.channelOf(addr)
	start := t
	if h.chanFree[ch] > start {
		start = h.chanFree[ch]
	}
	h.queuedWrite += start - t
	h.chanFree[ch] = start + h.params.HBMLineOccupied
}

// writeLineBuffered retires a victim-buffer drain (an orphaned L1
// writeback or an end-of-run flush): the line is counted as write
// traffic and serializes against other drains on its channel's write
// engine, but a read-priority controller never lets it stall demand
// fetches.
func (h *hbm) writeLineBuffered(addr uint64, t int64) {
	h.writes++
	ch := h.channelOf(addr)
	start := t
	if h.chanFreeW[ch] > start {
		start = h.chanFreeW[ch]
	}
	h.queuedWrite += start - t
	h.chanFreeW[ch] = start + h.params.HBMLineOccupied
}
