package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

// LeaderConfig configures the leader-side replicator.
type LeaderConfig struct {
	// Store is the leader's journal; resync reads its segments and the
	// tail stream carries its OnAppendFrame output.
	Store *store.Store
	// DataDir holds the persisted follower URL.
	DataDir string
	// Epoch is this leader's replication epoch (loaded from the data
	// dir at startup; bumped only by promotion).
	Epoch uint64
	// Mode is async or semisync (see Mode).
	Mode Mode
	// SemisyncTimeout caps how long a submit ack waits for the
	// follower before falling back to async (default 2s).
	SemisyncTimeout time.Duration
	// BufferBytes bounds the in-memory ship buffer; overflow drops
	// the buffered tail and forces a full resync on the next connect
	// (default 8 MiB).
	BufferBytes int64
	// MaxBatchBytes bounds one tail-apply POST (default 1 MiB).
	MaxBatchBytes int
	// ChunkBytes bounds one resync chunk POST, split on frame
	// boundaries (default 256 KiB).
	ChunkBytes int
	// HeartbeatEvery is the leader→follower heartbeat cadence
	// (default 1s).
	HeartbeatEvery time.Duration
	// MaxBackoff caps the reconnect backoff (default 5s; backoff
	// starts at 50ms and doubles).
	MaxBackoff time.Duration
	// Faults taps the repl.send and repl.ack injection points.
	Faults *fault.Injector
	// Stats receives state/lag/counter updates. Required.
	Stats *Stats
	// Logger receives replication lifecycle lines. May be nil.
	Logger *log.Logger
	// Client posts to the follower (default 10s-timeout client).
	Client *http.Client
}

// queued is one buffered journal record awaiting ship.
type queued struct {
	seq   uint64
	frame []byte
}

// Replicator is the leader side: it buffers journal frames as the
// store commits them, ships them to the registered follower, runs
// full resyncs when the follower is behind a gap, and exposes
// WaitApplied for semisync submit acks.
type Replicator struct {
	cfg    LeaderConfig
	client *http.Client

	mu          sync.Mutex
	cond        *sync.Cond // queue activity + follower attach + ack progress
	queue       []queued
	queuedBytes int64
	snaps       map[string][]byte // pending live snapshot ships, latest wins
	followerURL string
	needResync  bool
	ackedSeq    uint64
	lastSeq     uint64 // highest journal seq observed (OnRecord / resync cursor)
	rejected    bool
	closed      bool
	done        chan struct{} // closed by Close, for goroutines that wait on timers

	// ackBreaker trips after repeated semisync ack timeouts; owned here
	// so a promote/restart starts it closed.
	ackBreaker *Breaker

	wg sync.WaitGroup
}

// NewReplicator starts the leader replicator. If a follower URL was
// persisted by an earlier run it re-attaches immediately, so a leader
// restart resumes streaming without waiting for re-registration.
func NewReplicator(cfg LeaderConfig) *Replicator {
	if cfg.SemisyncTimeout <= 0 {
		cfg.SemisyncTimeout = 2 * time.Second
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 8 << 20
	}
	if cfg.MaxBatchBytes <= 0 {
		cfg.MaxBatchBytes = 1 << 20
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = 256 << 10
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	r := &Replicator{cfg: cfg, client: client, snaps: make(map[string][]byte), done: make(chan struct{})}
	// Three consecutive semisync fallbacks open the ack breaker; it stays
	// open 10s before admitting a probe wait. While open, submits skip
	// the ack wait entirely — pure async — instead of each stalling for
	// the full SemisyncTimeout.
	r.ackBreaker = NewBreaker(3, 10*time.Second, cfg.Stats)
	r.cond = sync.NewCond(&r.mu)
	r.cfg.Stats.State.Store(StateIdle)
	if url, err := LoadFollowerURL(cfg.DataDir); err == nil && url != "" {
		r.attach(url)
	}
	r.wg.Add(2)
	go r.run()
	go r.heartbeats()
	return r
}

func (r *Replicator) logf(format string, args ...any) {
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf(format, args...)
	}
}

// SemisyncTimeout exposes the configured ack-wait budget.
func (r *Replicator) SemisyncTimeout() time.Duration { return r.cfg.SemisyncTimeout }

// AckBreaker exposes the semisync ack circuit breaker.
func (r *Replicator) AckBreaker() *Breaker { return r.ackBreaker }

// Mode exposes the configured replication mode.
func (r *Replicator) Mode() Mode { return r.cfg.Mode }

// AttachFollower registers (or replaces) the follower and persists its
// URL. A newly attached follower always gets a full resync first —
// sequence numbers are process-local, so the leader never assumes
// anything about what a follower already holds.
func (r *Replicator) AttachFollower(url string) error {
	if url == "" {
		return errors.New("repl: empty follower url")
	}
	if err := SaveFollowerURL(r.cfg.DataDir, url); err != nil {
		return err
	}
	r.attach(url)
	return nil
}

func (r *Replicator) attach(url string) {
	r.mu.Lock()
	if r.followerURL != url {
		r.followerURL = url
		r.needResync = true
		r.logf("repl: follower attached at %s", url)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// OnRecord is the store's OnAppendFrame hook: it buffers the committed
// frame for shipping. Called under the store lock, so it only touches
// the replicator's own state (lock order: store.mu → repl.mu, never
// the reverse). On buffer overflow the whole buffered tail is dropped
// and the session falls back to a full resync — bounded memory beats
// an unbounded queue behind a dead follower.
func (r *Replicator) OnRecord(seq uint64, frame []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.rejected {
		return
	}
	if r.queuedBytes+int64(len(frame)) > r.cfg.BufferBytes {
		r.queue = nil
		r.queuedBytes = 0
		r.needResync = true
		r.lastSeq = seq
		r.cfg.Stats.BufferOverflows.Add(1)
		r.cfg.Stats.BufferedBytes.Store(0)
		r.updateLagLocked()
		r.logf("repl: ship buffer overflow at seq %d, will full-resync", seq)
		return
	}
	r.queue = append(r.queue, queued{seq: seq, frame: frame})
	r.queuedBytes += int64(len(frame))
	r.lastSeq = seq
	r.cfg.Stats.BufferedBytes.Store(r.queuedBytes)
	r.updateLagLocked()
	r.cond.Broadcast()
}

// ShipSnapshot buffers a checkpoint image for asynchronous delivery to
// the follower (latest image per job wins). Snapshot delivery is
// best-effort: the journal is the ground truth, a missing snapshot
// only costs recompute-from-iteration-0 at promote time.
func (r *Replicator) ShipSnapshot(jobID string, data []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed || r.rejected || r.followerURL == "" {
		return
	}
	r.snaps[jobID] = data
	r.cond.Broadcast()
}

// WaitApplied blocks until the follower has acknowledged sequence
// number seq, returning true; it returns false when ctx expires, no
// follower is attached, or the replicator is fenced/closed — the
// semisync fallback cases.
func (r *Replicator) WaitApplied(ctx context.Context, seq uint64) bool {
	r.mu.Lock()
	if r.followerURL == "" || r.rejected || r.closed {
		r.mu.Unlock()
		return false
	}
	r.mu.Unlock()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		r.cond.Broadcast()
	}()
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.ackedSeq < seq && !r.rejected && !r.closed && ctx.Err() == nil {
		r.cond.Wait()
	}
	return r.ackedSeq >= seq
}

// AckedSeq returns the highest follower-acknowledged sequence number.
func (r *Replicator) AckedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ackedSeq
}

// Close stops the replicator's goroutines and releases waiters.
func (r *Replicator) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.done)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// updateLagLocked refreshes the lag gauge from the replicator's own
// view of the journal head (lastSeq). It deliberately does not call
// Store.Seq(): OnRecord runs under the store lock, and store.mu →
// repl.mu is the only permitted lock order.
func (r *Replicator) updateLagLocked() {
	lag := int64(r.lastSeq) - int64(r.ackedSeq)
	if lag < 0 {
		lag = 0
	}
	r.cfg.Stats.LagRecords.Store(lag)
}

// Status renders the leader's replication view.
func (r *Replicator) Status() StatusView {
	r.mu.Lock()
	defer r.mu.Unlock()
	sv := StatusView{
		Role:              "leader",
		State:             StateName(r.cfg.Stats.State.Load()),
		Mode:              r.cfg.Mode.String(),
		Epoch:             r.cfg.Epoch,
		Follower:          r.followerURL,
		LagRecords:        r.cfg.Stats.LagRecords.Load(),
		AckedSeq:          r.ackedSeq,
		Resyncs:           r.cfg.Stats.Resyncs.Load(),
		SemisyncFallbacks: r.cfg.Stats.SemisyncFallbacks.Load(),
		BufferedBytes:     r.cfg.Stats.BufferedBytes.Load(),
		BufferOverflows:   r.cfg.Stats.BufferOverflows.Load(),
	}
	if r.cfg.Mode == ModeSemiSync {
		sv.BreakerState = r.ackBreaker.State().String()
		sv.BreakerOpens = r.cfg.Stats.BreakerOpens.Load()
	}
	return sv
}

// errStaleEpoch marks a 409 caused by epoch fencing (vs. a sequence
// gap, which is recoverable by resync).
var errStaleEpoch = errors.New("repl: fenced by higher follower epoch")

// errSeqGap marks a follower 409 asking for a resync.
var errSeqGap = errors.New("repl: follower reports sequence gap")

// post sends one replication request through the repl.send fault
// point, mapping follower 409s onto the two sentinel errors above.
func (r *Replicator) post(url, path string, headers map[string]string, body []byte) error {
	if err := r.cfg.Faults.Check(fault.ReplSend); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(url, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(HeaderEpoch, strconv.FormatUint(r.cfg.Epoch, 10))
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		return nil
	case resp.StatusCode == http.StatusConflict:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if bytes.Contains(msg, []byte("epoch")) || bytes.Contains(msg, []byte("promoted")) {
			return fmt.Errorf("%w: %s", errStaleEpoch, strings.TrimSpace(string(msg)))
		}
		return fmt.Errorf("%w: %s", errSeqGap, strings.TrimSpace(string(msg)))
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("repl: %s -> %d: %s", path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

// heartbeats pings the follower on a fixed cadence, independent of the
// streaming session, so the follower's promote watchdog measures
// leader liveness rather than stream progress.
func (r *Replicator) heartbeats() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-t.C:
		}
		r.mu.Lock()
		url, rejected := r.followerURL, r.rejected
		r.mu.Unlock()
		if rejected || url == "" {
			continue
		}
		body, _ := json.Marshal(map[string]uint64{"seq": r.cfg.Store.Seq()})
		if err := r.post(url, "/v1/repl/heartbeat", nil, body); errors.Is(err, errStaleEpoch) {
			r.fence(err)
		}
	}
}

// fence moves the replicator to the terminal rejected state after a
// higher-epoch 409 — the follower was promoted, this leader is stale.
func (r *Replicator) fence(err error) {
	r.mu.Lock()
	if !r.rejected {
		r.rejected = true
		r.queue = nil
		r.queuedBytes = 0
		r.cfg.Stats.BufferedBytes.Store(0)
		r.cfg.Stats.State.Store(StateRejected)
		r.logf("repl: fenced: %v", err)
	}
	r.cond.Broadcast()
	r.mu.Unlock()
}

// run is the streaming session: resync when needed, then drain the
// ship buffer in bounded batches, with capped-backoff reconnects.
func (r *Replicator) run() {
	defer r.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		r.mu.Lock()
		for !r.closed && !r.rejected && (r.followerURL == "" || (!r.needResync && len(r.queue) == 0 && len(r.snaps) == 0)) {
			if r.followerURL == "" {
				r.cfg.Stats.State.Store(StateIdle)
			}
			r.cond.Wait()
		}
		if r.closed || r.rejected {
			r.mu.Unlock()
			return
		}
		url := r.followerURL
		resync := r.needResync
		r.mu.Unlock()

		var err error
		if resync {
			err = r.resync(url)
		} else {
			err = r.shipSome(url)
		}
		switch {
		case err == nil:
			backoff = 50 * time.Millisecond
		case errors.Is(err, errStaleEpoch):
			r.fence(err)
			return
		case errors.Is(err, errSeqGap):
			r.mu.Lock()
			r.needResync = true
			r.mu.Unlock()
		default:
			r.cfg.Stats.State.Store(StateDisconnected)
			r.logf("repl: follower unreachable (%v), retrying in %s", err, backoff)
			if !r.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > r.cfg.MaxBackoff {
				backoff = r.cfg.MaxBackoff
			}
		}
	}
}

// sleep waits d, returning false if the replicator closed meanwhile.
func (r *Replicator) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.done:
		return false
	}
}

// shipSome sends one bounded batch of buffered frames (and at most one
// pending snapshot) to the follower.
func (r *Replicator) shipSome(url string) error {
	r.mu.Lock()
	var (
		base  uint64
		n     int
		total int
	)
	for _, q := range r.queue {
		if n > 0 && total+len(q.frame) > r.cfg.MaxBatchBytes {
			break
		}
		if n == 0 {
			base = q.seq
		}
		total += len(q.frame)
		n++
	}
	batch := make([]byte, 0, total)
	for _, q := range r.queue[:n] {
		batch = append(batch, q.frame...)
	}
	var snapJob string
	var snapData []byte
	if n == 0 {
		for job, data := range r.snaps {
			snapJob, snapData = job, data
			delete(r.snaps, job)
			break
		}
	}
	r.mu.Unlock()

	if n > 0 {
		err := r.post(url, "/v1/repl/apply", map[string]string{
			HeaderBaseSeq: strconv.FormatUint(base, 10),
		}, batch)
		if err != nil {
			return err
		}
		if ferr := r.cfg.Faults.Check(fault.ReplAck); ferr != nil {
			// An injected ack fault models a response lost on the wire:
			// the follower applied the batch, the leader didn't see it.
			// Keep the frames queued; the retry is a follower-side
			// duplicate, which the seq-continuity rule absorbs.
			return ferr
		}
		r.mu.Lock()
		// The queue may have been dropped (overflow) while the POST was
		// in flight; only retire the entries this batch actually covers.
		retired := 0
		var freed int64
		for retired < len(r.queue) && r.queue[retired].seq < base+uint64(n) {
			freed += int64(len(r.queue[retired].frame))
			retired++
		}
		r.queue = r.queue[retired:]
		r.queuedBytes -= freed
		if acked := base + uint64(n) - 1; acked > r.ackedSeq {
			r.ackedSeq = acked
		}
		r.cfg.Stats.SentRecords.Add(int64(n))
		r.cfg.Stats.BufferedBytes.Store(r.queuedBytes)
		r.updateLagLocked()
		if len(r.queue) == 0 {
			r.cfg.Stats.State.Store(StateStreaming)
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		return nil
	}
	if snapData != nil {
		// Best-effort: a failed snapshot ship is retried only if the
		// job checkpoints again. Epoch fencing still propagates.
		if err := r.post(url, "/v1/repl/snapshot/"+snapJob, nil, snapData); errors.Is(err, errStaleEpoch) {
			return err
		}
		return nil
	}
	return nil
}

// resync replaces the follower's journal wholesale: stage every
// segment's frames (chunked on frame boundaries) plus the current
// checkpoint snapshots, then commit with the sequence cursor captured
// atomically with the segment list. Records appended during the ship
// stay in the ship buffer; entries the resync already covers are
// retired after commit, and any overlap the follower sees later is a
// harmless fold-duplicate.
func (r *Replicator) resync(url string) error {
	r.cfg.Stats.State.Store(StateSyncing)
	r.cfg.Stats.Resyncs.Add(1)
	r.logf("repl: starting full resync to %s", url)
	if err := r.post(url, "/v1/repl/resync/begin", nil, nil); err != nil {
		return err
	}
	segs, cursor, err := r.cfg.Store.Segments()
	if err != nil {
		return err
	}
	var shipped int64
	for _, seg := range segs {
		data, err := r.cfg.Store.ReadFrom(seg.Index, store.SegmentHeaderLen)
		if err != nil {
			if errors.Is(err, store.ErrSegmentGone) {
				// Compaction raced the resync; restart from a fresh
				// segment listing.
				return errSeqGap
			}
			return err
		}
		chunks, err := splitFrames(data, r.cfg.ChunkBytes)
		if err != nil {
			return fmt.Errorf("repl: segment %d unparseable: %w", seg.Index, err)
		}
		for _, chunk := range chunks {
			if err := r.post(url, "/v1/repl/resync/chunk", nil, chunk); err != nil {
				return err
			}
			shipped += int64(len(chunk))
		}
	}
	ids, err := r.cfg.Store.SnapshotJobIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		snaps, err := r.cfg.Store.LoadSnapshots(id)
		if err != nil || len(snaps) == 0 {
			continue
		}
		if err := r.post(url, "/v1/repl/resync/snapshot/"+id, nil, snaps[0]); err != nil {
			return err
		}
	}
	body, _ := json.Marshal(map[string]uint64{"cursor": cursor})
	if err := r.post(url, "/v1/repl/resync/commit", nil, body); err != nil {
		return err
	}
	r.mu.Lock()
	r.needResync = false
	retired := 0
	for retired < len(r.queue) && r.queue[retired].seq <= cursor {
		r.queuedBytes -= int64(len(r.queue[retired].frame))
		retired++
	}
	r.queue = r.queue[retired:]
	if cursor > r.ackedSeq {
		r.ackedSeq = cursor
	}
	if cursor > r.lastSeq {
		r.lastSeq = cursor
	}
	r.cfg.Stats.SentRecords.Add(int64(cursor))
	r.cfg.Stats.BufferedBytes.Store(r.queuedBytes)
	r.cfg.Stats.State.Store(StateStreaming)
	r.updateLagLocked()
	r.cond.Broadcast()
	r.mu.Unlock()
	r.logf("repl: resync committed (cursor %d, %d bytes shipped)", cursor, shipped)
	return nil
}

// splitFrames splits a run of journal frames into chunks of at most
// chunkBytes, never tearing a frame across chunks (the follower
// CRC-verifies each chunk independently). A single frame larger than
// chunkBytes becomes its own chunk.
func splitFrames(data []byte, chunkBytes int) ([][]byte, error) {
	var chunks [][]byte
	start, off := 0, 0
	for off < len(data) {
		if len(data)-off < frameHeaderLen {
			return nil, fmt.Errorf("torn frame header at offset %d", off)
		}
		length := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		if length <= 0 || length > maxFrameLen {
			return nil, fmt.Errorf("implausible frame length %d at offset %d", length, off)
		}
		next := off + frameHeaderLen + length
		if next > len(data) {
			return nil, fmt.Errorf("torn frame at offset %d", off)
		}
		if off > start && next-start > chunkBytes {
			chunks = append(chunks, data[start:off])
			start = off
		}
		off = next
	}
	if start < len(data) {
		chunks = append(chunks, data[start:])
	}
	return chunks, nil
}
