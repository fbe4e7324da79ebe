package main

import (
	"runtime"
	"sync"
	"time"

	"cosparse/internal/rng"
)

// The build host changes speed under the benchmark: for minutes at a
// time everything on it, whatever it is bound by, runs up to 1.6 times
// slower, and nothing inside the VM sees why (README.md "Why the timed
// metrics are quiet and scaled"). So every run measures the host as
// well as the workload: between jobs it times a fixed piece of work of
// the harness's own, and the timed end-to-end metrics are reported at
// the speed the host has when it is undisturbed. Over 13 minutes in
// which the raw quiet latency of PageRank swung by ±24 %, the scaled
// one stayed within ±10 %.

// hostRef is the fixed piece of work: a pull sweep y = 0.85·A·x + 0.15
// over a random 16-per-row CSR pattern, split over GOMAXPROCS
// goroutines like the native kernels. It is a measuring instrument, not
// an input, so it does not depend on the seed.
type hostRef struct {
	col  []int32
	x, y []float32
}

const (
	refRowNNZ = 16
	// refSweeps is the length of one slice: about 6 ms on the build
	// host, short against a library job, long against timer noise.
	refSweeps = 10
	// refNominalMs is what a slice takes on the undisturbed build host
	// (2 vCPUs of a Xeon at 2.1 GHz). It only fixes the scale: on
	// another host every scaled metric moves by one constant factor.
	refNominalMs = 6.0
)

func newHostRef(rows int) *hostRef {
	r := rng.New(0x686f7374726566) // "hostref"
	h := &hostRef{col: make([]int32, rows*refRowNNZ), x: make([]float32, rows), y: make([]float32, rows)}
	for i := range h.col {
		h.col[i] = r.Int31n(int32(rows))
	}
	for i := range h.x {
		h.x[i] = 1
	}
	return h
}

// slice runs refSweeps sweeps and returns the milliseconds they took.
func (h *hostRef) slice() float64 {
	t0 := time.Now()
	rows, workers := len(h.x), runtime.GOMAXPROCS(0)
	for s := 0; s < refSweeps; s++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := rows*w/workers, rows*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := lo; r < hi; r++ {
					sum := float32(0)
					for _, c := range h.col[r*refRowNNZ : (r+1)*refRowNNZ] {
						sum += h.x[c]
					}
					h.y[r] = 0.85*sum/refRowNNZ + 0.15
				}
			}()
		}
		wg.Wait()
		h.x, h.y = h.y, h.x
	}
	return ms(time.Since(t0))
}

// hostSpeed collects slices and says how much slower than nominal the
// host was over a stretch of them.
type hostSpeed struct {
	ref *hostRef

	mu     sync.Mutex
	slices []float64
}

// sample runs one slice on the calling goroutine.
func (s *hostSpeed) sample() float64 {
	v := s.ref.slice()
	s.mu.Lock()
	s.slices = append(s.slices, v)
	s.mu.Unlock()
	return v
}

// mark returns a position in the slice log, to measure from later.
func (s *hostSpeed) mark() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slices)
}

// slowdown is the host's speed since mark as a multiple of nominal
// time: the 10th percentile of the slices, because a burst that hits a
// slice says nothing about the jobs it did not hit, and the jobs'
// own estimator (quietP50) already sets those aside. It also returns
// the total time the slices took.
func (s *hostSpeed) slowdown(mark int) (factor, spentMs float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	since := s.slices[mark:]
	if len(since) == 0 {
		return 1, 0
	}
	for _, v := range since {
		spentMs += v
	}
	return percentile(since, quietPercentile) / refNominalMs, spentMs
}

// svcSampleEvery is how often a service window is interrupted by a
// slice: the window's callers are concurrent, so the slices cannot sit
// between jobs and run beside them instead, about 5 % of the time.
const svcSampleEvery = 200 * time.Millisecond

// sampleUntil takes a slice every svcSampleEvery until stop is closed.
func (s *hostSpeed) sampleUntil(stop <-chan struct{}) {
	t := time.NewTicker(svcSampleEvery)
	defer t.Stop()
	for {
		s.sample()
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}
