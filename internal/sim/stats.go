package sim

// MemoryBreakdown is the report-friendly rollup of a run's Stats: the
// per-PE event counters the machine tracks (stall cycles, stream loads,
// HBM lines, queued cycles, cache hits/misses per level) folded into
// the derived quantities an operator actually reads. It is plain data
// with JSON tags so it survives verbatim into runtime reports and the
// service's trace endpoint.
type MemoryBreakdown struct {
	L1Hits    int64   `json:"l1_hits"`
	L1Misses  int64   `json:"l1_misses"`
	L1HitRate float64 `json:"l1_hit_rate"`
	L2Hits    int64   `json:"l2_hits"`
	L2Misses  int64   `json:"l2_misses"`
	L2HitRate float64 `json:"l2_hit_rate"`

	// HBM traffic, split by direction (reads are demand/stream fetches;
	// writes are L2 dirty-line writebacks). Queued cycles are cumulative
	// channel queueing delay per direction.
	HBMReadLines   int64 `json:"hbm_read_lines"`
	HBMWriteLines  int64 `json:"hbm_write_lines"`
	HBMReadQueued  int64 `json:"hbm_read_queued_cycles"`
	HBMWriteQueued int64 `json:"hbm_write_queued_cycles"`

	Loads       int64 `json:"loads"`
	Stores      int64 `json:"stores"`
	StreamLoads int64 `json:"stream_loads"`
	SPMReads    int64 `json:"spm_reads"`
	SPMWrites   int64 `json:"spm_writes"`
	Prefetches  int64 `json:"prefetches"`
	Writebacks  int64 `json:"writebacks"`

	StallCycles    int64 `json:"stall_cycles"`
	ReconfigCycles int64 `json:"reconfig_cycles"`

	// AvgReadQueueCycles / AvgWriteQueueCycles are the mean channel
	// queueing delay per line in each direction — the first number to
	// look at when a run is slower than its miss count predicts.
	AvgReadQueueCycles  float64 `json:"avg_read_queue_cycles"`
	AvgWriteQueueCycles float64 `json:"avg_write_queue_cycles"`
}

// MemoryBreakdown derives the structured rollup from raw counters.
func (s Stats) MemoryBreakdown() MemoryBreakdown {
	b := MemoryBreakdown{
		L1Hits:         s.L1Hits,
		L1Misses:       s.L1Misses,
		L1HitRate:      s.L1HitRate(),
		L2Hits:         s.L2Hits,
		L2Misses:       s.L2Misses,
		L2HitRate:      s.L2HitRate(),
		HBMReadLines:   s.HBMLines,
		HBMWriteLines:  s.HBMWriteLines,
		HBMReadQueued:  s.HBMQueued,
		HBMWriteQueued: s.HBMWriteQueued,
		Loads:          s.Loads,
		Stores:         s.Stores,
		StreamLoads:    s.StreamLoads,
		SPMReads:       s.SPMReads,
		SPMWrites:      s.SPMWrites,
		Prefetches:     s.Prefetches,
		Writebacks:     s.Writebacks,
		StallCycles:    s.StallCycles,
		ReconfigCycles: s.ReconfigCycles,
	}
	if s.HBMLines > 0 {
		b.AvgReadQueueCycles = float64(s.HBMQueued) / float64(s.HBMLines)
	}
	if s.HBMWriteLines > 0 {
		b.AvgWriteQueueCycles = float64(s.HBMWriteQueued) / float64(s.HBMWriteLines)
	}
	return b
}
