package main

import "time"

// clock is the time source of the open-loop generator, injected so its
// due-time stamping and lateness can be tested without sleeping.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// runSchedule fires requests in bursts: burst requests share each due
// time, and due times are period apart from start until end. It runs on
// the calling goroutine. fire receives the due time and the time the
// generator actually got to the request; a slow fire delays later
// requests, whose lateness then shows, and the schedule never skips or
// re-times a request to catch up. It returns how many fired.
func runSchedule(clk clock, start time.Time, period time.Duration, burst int, end time.Time, fire func(i int, due, sent time.Time)) int {
	n := 0
	for {
		due := start.Add(time.Duration(n/burst) * period)
		if !due.Before(end) {
			return n
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		fire(n, due, clk.Now())
		n++
	}
}
