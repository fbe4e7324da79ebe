package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer, or a child
// synthesised from what that call returned. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Job    int    `json:"job"`    // job index; -1 for probes and set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil *tracer
// records nothing, so untraced runs share the code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(parent, job int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// begin opens a span at the current time; end closes it. Children made
// in between name the returned id as their parent.
func (t *tracer) begin(parent, job int, name string) int {
	now := time.Now()
	return t.add(parent, job, name, now, now)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// selfTimes fills every span's SelfNs: its duration minus the part of
// its interval that its direct children cover (overlapping children
// count once; children are clipped to the parent).
func selfTimes(spans []span) {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	for i := range spans {
		s := &spans[i]
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var cover, end int64
		end = s.Start
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			cover += v.hi - max(v.lo, end)
			end = v.hi
		}
		s.SelfNs = (s.End - s.Start) - cover
	}
}

// worstJobSelfShare returns the largest self-time share among spans
// named "job": the part of a job no named child accounts for.
func worstJobSelfShare(spans []span) float64 {
	worst := 0.0
	for _, s := range spans {
		if d := s.End - s.Start; s.Name == "job" && d > 0 {
			worst = max(worst, float64(s.SelfNs)/float64(d))
		}
	}
	return worst
}

// traceFile is what -trace 1 writes: one file per workload.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

// write computes self times and writes the spans as JSON.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	selfTimes(t.spans)
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
