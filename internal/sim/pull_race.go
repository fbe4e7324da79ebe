//go:build race

package sim

import "iter"

// pull runs a kernel on a goroutine handed control over unbuffered
// channels when the race detector is on. A coroutine that returns never
// releases its race-detector state (the runtime's coroutine exit path
// skips racegoend, as of go1.24), about 5 KB per kernel: gigabytes over
// the race test suite, where a simulated run starts one kernel per PE.
// It keeps the part of iter.Pull's contract the scheduler uses: next
// runs the kernel until it yields or returns, reports false once it has
// returned, and re-raises a panic the kernel ended with.
func pull(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	resume := make(chan struct{})
	yielded := make(chan bool)
	var panicked any
	go func() {
		<-resume
		defer func() {
			panicked = recover()
			yielded <- false
		}()
		seq(func(struct{}) bool {
			yielded <- true
			<-resume
			return true
		})
	}()
	done := false
	return func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		resume <- struct{}{}
		if <-yielded {
			return struct{}{}, true
		}
		done = true
		if panicked != nil {
			panic(panicked)
		}
		return struct{}{}, false
	}
}
