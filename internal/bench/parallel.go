package bench

import (
	"runtime"
	"sync"
)

// parallelCells runs fn(i) for i in [0, n) on a host worker pool. Each
// cell of a sweep is an independent, internally-deterministic
// simulation, so host-side parallelism changes wall-clock time only —
// results are bit-identical to the sequential order. A simulated
// machine runs its PEs one at a time (coroutines handing off), so each
// worker keeps about one host thread busy.
func parallelCells(n int, fn func(i int)) {
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
