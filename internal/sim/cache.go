package sim

// cacheBank is one set-associative RCache bank with true LRU
// replacement and write-back, write-allocate policy. Banks store only
// tags and metadata — the simulator is timing-only; data values live in
// the kernels' ordinary Go slices.
type cacheBank struct {
	sets      divisor
	ways      int
	shift     uint        // log2(block bytes)
	lines     []cacheLine // sets × ways, one set's ways adjacent
	free      int64       // next cycle the bank can accept a request
	hits      int64
	misses    int64
	evictions int64
	wbacks    int64
}

// cacheLine is one way's tag and metadata, kept together so that a
// probe reads one set's ways from adjacent memory.
type cacheLine struct {
	key   uint64 // (block+1)<<1 | dirty; 0 is an invalid way
	lru   int64  // last-use timestamp
	ready int64  // fill completion time (for prefetched lines)
}

func lineKey(block uint64, dirty bool) uint64 {
	k := (block + 1) << 1
	if dirty {
		k |= 1
	}
	return k
}

func (l *cacheLine) valid() bool             { return l.key != 0 }
func (l *cacheLine) dirty() bool             { return l.key&1 != 0 }
func (l *cacheLine) holds(block uint64) bool { return l.key>>1 == block+1 }
func (l *cacheLine) block() uint64           { return l.key>>1 - 1 }
func (l *cacheLine) clean()                  { l.key &^= 1 }

func newCacheBank(bytes, assoc, blockBytes int) *cacheBank {
	return &newCacheBanks(1, bytes, assoc, blockBytes)[0]
}

// newCacheBanks returns n identical empty banks whose lines share one
// allocation.
func newCacheBanks(n, bytes, assoc, blockBytes int) []cacheBank {
	sets := bytes / blockBytes / assoc
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < blockBytes {
		shift++
	}
	per := sets * assoc
	lines := make([]cacheLine, n*per)
	banks := make([]cacheBank, n)
	for i := range banks {
		banks[i] = cacheBank{
			sets:  newDivisor(sets),
			ways:  assoc,
			shift: shift,
			lines: lines[i*per : (i+1)*per : (i+1)*per],
		}
	}
	return banks
}

// lookupResult describes the outcome of a cache bank probe.
type lookupResult struct {
	hit         bool
	readyAt     int64 // for hits on in-flight (prefetched) lines: when data is usable
	victim      int   // way index chosen for fill on a miss
	victimDirty bool
}

// probe checks for the block containing addr at time now, updating LRU
// on a hit. It does not allocate; the caller decides whether to fill.
func (b *cacheBank) probe(addr uint64, now int64) lookupResult {
	block := addr >> b.shift
	base := int(b.sets.mod(block)) * b.ways
	set := b.lines[base : base+b.ways]
	for w := range set {
		if l := &set[w]; l.holds(block) {
			b.hits++
			l.lru = now
			return lookupResult{hit: true, readyAt: l.ready}
		}
	}
	b.misses++
	// Choose an LRU victim (prefer invalid ways).
	victim := 0
	oldest := int64(1<<62 - 1)
	for w := range set {
		l := &set[w]
		if !l.valid() {
			victim = w
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = w
		}
	}
	return lookupResult{victim: base + victim, victimDirty: set[victim].dirty()}
}

// fill installs the block containing addr into the given way.
func (b *cacheBank) fill(addr uint64, way int, now, readyAt int64, dirty bool) {
	l := &b.lines[way]
	if l.valid() {
		b.evictions++
		if l.dirty() {
			b.wbacks++
		}
	}
	*l = cacheLine{key: lineKey(addr>>b.shift, dirty), lru: now, ready: readyAt}
}

// install quietly places the block containing addr into the bank (used
// for prefetched stream lines landing in the cache): no hit/miss
// accounting, LRU victim selection, returns whether a dirty line was
// displaced. Present blocks are refreshed, not duplicated.
func (b *cacheBank) install(addr uint64, now int64) (victimDirty bool) {
	block := addr >> b.shift
	base := int(b.sets.mod(block)) * b.ways
	set := b.lines[base : base+b.ways]
	victim := 0
	oldest := int64(1<<62 - 1)
	for w := range set {
		l := &set[w]
		if l.holds(block) {
			l.lru = now
			return false
		}
		if !l.valid() {
			victim = w
			oldest = -1
		} else if oldest >= 0 && l.lru < oldest {
			oldest = l.lru
			victim = w
		}
	}
	v := &set[victim]
	victimDirty = v.dirty()
	if v.valid() {
		b.evictions++
		if victimDirty {
			b.wbacks++
		}
	}
	*v = cacheLine{key: lineKey(block, false), lru: now, ready: now}
	return victimDirty
}

// markDirty flags the block containing addr dirty if present and
// reports whether it was; an absent block means the caller's writeback
// must continue down the hierarchy.
func (b *cacheBank) markDirty(addr uint64) bool {
	block := addr >> b.shift
	base := int(b.sets.mod(block)) * b.ways
	for w := base; w < base+b.ways; w++ {
		if l := &b.lines[w]; l.holds(block) {
			l.key |= 1
			return true
		}
	}
	return false
}

// contains reports whether the block holding addr is resident (used by
// the prefetcher to avoid duplicate fills). Does not touch LRU state.
func (b *cacheBank) contains(addr uint64) bool {
	block := addr >> b.shift
	base := int(b.sets.mod(block)) * b.ways
	for w := base; w < base+b.ways; w++ {
		if l := &b.lines[w]; l.holds(block) {
			return true
		}
	}
	return false
}

// occupy serializes a request at the bank: the request issued at time t
// starts when the bank is free and holds it for `busy` cycles. Returns
// the queueing delay.
func (b *cacheBank) occupy(t, busy int64) int64 {
	start := t
	if b.free > start {
		start = b.free
	}
	b.free = start + busy
	return start - t
}

// streamPrefetcher is a per-PE stride detector with a small stream
// table, the "stride prefetcher" of Table II. Each tracked stream
// accepts misses within a window of its last miss, so a PE that
// interleaves a sequential matrix stream with random frontier gathers
// (exactly what the IP kernel does) keeps the stream trained — this is
// what lets IP stream COO data at near bandwidth. Training tolerates
// the miss-skipping that its own prefetches cause: once lines are
// fetched ahead, demand misses land every `degree` blocks, and any
// small same-direction jump keeps the stream confident.
type streamPrefetcher struct {
	streams [4]pfStream
	next    int
	issued  int64
}

type pfStream struct {
	lastBlock uint64
	lastDelta int64
	confident bool
}

// streamWindow is how far (in blocks) a miss may land from a stream's
// last miss and still belong to it.
const streamWindow = 8

// observeMiss updates the detector with a missing block address and
// returns the unit stride (+1/−1 blocks) to prefetch with, or 0.
func (p *streamPrefetcher) observeMiss(block uint64) int64 {
	for i := range p.streams {
		s := &p.streams[i]
		if s.lastBlock == 0 {
			continue
		}
		delta := int64(block) - int64(s.lastBlock)
		if delta == 0 {
			return 0 // same line re-missed (fill in flight); no retrain
		}
		if delta >= -streamWindow && delta <= streamWindow {
			sameDir := (delta > 0) == (s.lastDelta > 0)
			s.confident = s.lastDelta != 0 && sameDir
			s.lastDelta = delta
			s.lastBlock = block
			if s.confident {
				if delta > 0 {
					return 1
				}
				return -1
			}
			return 0
		}
	}
	// No stream matched: allocate, preferring empty or untrained slots
	// so scattered misses cannot evict a trained stream.
	victim := -1
	for i := range p.streams {
		if p.streams[i].lastBlock == 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		for i := range p.streams {
			if !p.streams[i].confident {
				victim = i
				break
			}
		}
	}
	if victim < 0 {
		victim = p.next
		p.next = (p.next + 1) % len(p.streams)
	}
	p.streams[victim] = pfStream{lastBlock: block}
	return 0
}
