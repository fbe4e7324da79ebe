package service

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	var sb strings.Builder
	h.write(&sb, "x", `k="v"`)
	got := sb.String()
	want := `x_bucket{k="v",le="1"} 2
x_bucket{k="v",le="10"} 3
x_bucket{k="v",le="100"} 4
x_bucket{k="v",le="+Inf"} 5
x_sum{k="v"} 556.5
x_count{k="v"} 5
`
	if got != want {
		t.Fatalf("histogram render:\n got %q\nwant %q", got, want)
	}
	sb.Reset()
	h.write(&sb, "x", "")
	if got, want := sb.String(), strings.NewReplacer(`k="v",`, "", `{k="v"}`, "").Replace(want); got != want {
		t.Fatalf("unlabelled histogram render:\n got %q\nwant %q", got, want)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	m := NewMetrics()
	m.JobsDone.Add(2)
	m.ObserveJob("pr", "sim", "solo", 5e6, 0.02)
	m.ObserveJob("bfs", "native", "solo", 0, 0.004) // native jobs simulate no cycles

	var a, b strings.Builder
	m.WritePrometheus(&a)
	m.WritePrometheus(&b)
	if a.String() != b.String() {
		t.Fatal("two renders of the same metrics differ")
	}
	text := a.String()
	// Histogram algorithms render in sorted order.
	bfs := strings.Index(text, `cosparsed_job_seconds_bucket{algo="bfs",backend="native",mode="solo"`)
	pr := strings.Index(text, `cosparsed_job_seconds_bucket{algo="pr",backend="sim",mode="solo"`)
	if bfs < 0 || pr < 0 || bfs > pr {
		t.Fatalf("histogram ordering wrong: bfs@%d pr@%d", bfs, pr)
	}
	for _, want := range []string{
		"# TYPE cosparsed_jobs_done_total counter",
		"cosparsed_jobs_done_total 2",
		"# TYPE cosparsed_queue_depth gauge",
		`cosparsed_job_cycles_count{algo="pr",backend="sim",mode="solo"} 1`,
		`cosparsed_job_seconds_count{algo="bfs",backend="native",mode="solo"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q", want)
		}
	}
	if strings.Contains(text, `cosparsed_job_cycles_count{algo="bfs",backend="native"`) {
		t.Error("rendered a cycles series for a native job")
	}
}
