package sim

import "fmt"

// newProcs returns n processors of this machine with their store
// buffers carved from one allocation.
func (m *Machine) newProcs(n int) []Proc {
	procs := make([]Proc, n)
	depth := m.cfg.Params.StoreBufDepth
	stores := make([]int64, n*depth)
	for i := range procs {
		procs[i].m = m
		procs[i].storeBuf = stores[i*depth : (i+1)*depth : (i+1)*depth]
	}
	return procs
}

// procTree picks the earliest processor: a tournament tree over a fixed
// set of processors ordered by local time, ties broken by index (which
// is the processor's id) for determinism. Each processor is one key,
// its time above its index, so a single unsigned compare orders two of
// them and a match is a branch-free min/max. Leaf i is node n+i;
// internal node k < n holds the losing key of the match between its
// children, so when the winner's time changes only its leaf-to-root
// path is replayed, and the runner-up is the best of the losers on the
// winner's path. A finished processor's key has the top bit set.
type procTree struct {
	bits   uint     // index bits of a key
	loser  []uint64 // loser[k] for internal nodes 1..n-1
	winner uint64
}

const procDone uint64 = 1 << 63

func newProcTree(procs []Proc) *procTree {
	n := len(procs)
	t := &procTree{loser: make([]uint64, n)}
	for 1<<t.bits < n {
		t.bits++
	}
	win := make([]uint64, 2*n)
	for i := range procs {
		win[n+i] = t.key(procs[i].time, i)
	}
	for k := n - 1; k >= 1; k-- {
		a, b := win[2*k], win[2*k+1]
		win[k], t.loser[k] = min(a, b), max(a, b)
	}
	t.winner = win[1] // with one processor, node 1 is its leaf
	return t
}

// key packs a running processor's time and index. A clock past 2^(63 -
// index bits) — 2^55 cycles on the paper's 256 PEs — would reach the
// done bit.
func (t *procTree) key(time int64, i int) uint64 {
	if uint64(time)>>(63-t.bits) != 0 {
		panic(fmt.Sprintf("sim: processor clock %d past the scheduler's range", time))
	}
	return uint64(time)<<t.bits | uint64(i)
}

// running reports whether any processor has not finished, and which
// runs next.
func (t *procTree) running() (int, bool) {
	return int(t.winner & (1<<t.bits - 1)), t.winner&procDone == 0
}

// runnerUp returns the earliest time among the other processors, or
// false if none of them is still running.
func (t *procTree) runnerUp() (int64, bool) {
	next := procDone
	i, _ := t.running()
	for k := (len(t.loser) + i) / 2; k >= 1; k /= 2 {
		next = min(next, t.loser[k])
	}
	return int64(next >> t.bits), next&procDone == 0
}

// update replays the winner's path after its clock moved to time, or
// after it finished.
func (t *procTree) update(time int64, done bool) {
	i, _ := t.running()
	w := procDone | uint64(i)
	if !done {
		w = t.key(time, i)
	}
	for k := (len(t.loser) + i) / 2; k >= 1; k /= 2 {
		l := t.loser[k]
		t.loser[k], w = max(l, w), min(l, w)
	}
	t.winner = w
}

// schedule runs fn on each processor under min-time-first interleaving:
// the earliest processor runs until it is more than SchedulerWindow
// cycles ahead of the next earliest, then yields. Each kernel is a
// coroutine (pull), so a switch is a direct handoff on one thread
// rather than a trip through the Go scheduler. When schedule returns each
// processor's clock holds its completion time. A kernel that panics
// ends its own processor only; the others run to completion and the
// first panic is re-raised here.
func (m *Machine) schedule(procs []Proc, fn func(*Proc)) {
	window := m.cfg.Params.SchedulerWindow
	for i := range procs {
		p := &procs[i]
		p.next = pull(func(yield func(struct{}) bool) {
			p.yield = yield
			fn(p)
		})
	}
	t := newProcTree(procs)
	var panicked any
	for i, ok := t.running(); ok; i, ok = t.running() {
		p := &procs[i]
		p.until = 1<<62 - 1
		if next, ok := t.runnerUp(); ok {
			p.until = next + window
		}
		running := p.resume(&panicked)
		t.update(p.time, !running)
	}
	if panicked != nil {
		// Every kernel has returned; re-raise the first panic at the
		// caller.
		panic(panicked)
	}
}

// resume runs p's kernel until it yields or returns and reports whether
// it is still running. A panic ends the kernel; the first one is kept
// in *panicked.
func (p *Proc) resume(panicked *any) (running bool) {
	defer func() {
		if r := recover(); r != nil {
			running = false
			if *panicked == nil {
				*panicked = r
			}
		}
	}()
	_, running = p.next()
	return running
}

// maybeYield hands control back to the scheduler once the processor has
// run past its window; the scheduler sets until before resuming it.
func (p *Proc) maybeYield() {
	if p.time > p.until {
		p.yield(struct{}{})
	}
}
