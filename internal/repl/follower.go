package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

// Wire headers carried on every replication request.
const (
	// HeaderEpoch carries the sender's replication epoch.
	HeaderEpoch = "X-Repl-Epoch"
	// HeaderBaseSeq carries the sequence number of the first record
	// in an apply batch.
	HeaderBaseSeq = "X-Repl-Base-Seq"
)

// maxApplyBytes bounds a single replication request body.
const maxApplyBytes = 64 << 20

// FollowerConfig configures the standby side.
type FollowerConfig struct {
	// Store is the follower's own journal; the replicated stream is
	// applied into it.
	Store *store.Store
	// DataDir holds the persisted epoch file.
	DataDir string
	// LeaderURL is the leader base URL to register with.
	LeaderURL string
	// SelfURL is this follower's advertised base URL, sent to the
	// leader at registration so the leader knows where to stream.
	SelfURL string
	// PromoteAfter auto-promotes when no leader heartbeat has arrived
	// for this long (only once the follower has synced at least once
	// and heard at least one heartbeat). Zero disables auto-promote.
	PromoteAfter time.Duration
	// RegisterEvery is the re-registration cadence while the leader
	// is silent (default 1s).
	RegisterEvery time.Duration
	// OnPromote is invoked (once) from the heartbeat watchdog when
	// PromoteAfter fires; the callback runs the service's promote
	// path. Manual promotion goes through the service directly.
	OnPromote func(reason string)
	// Faults taps the repl.apply injection point.
	Faults *fault.Injector
	// Stats receives state/lag/counter updates. Required.
	Stats *Stats
	// Logger receives replication lifecycle lines. May be nil.
	Logger *log.Logger
	// Client is used for registration posts (default http.Client
	// with a short timeout).
	Client *http.Client
}

// Follower applies a leader's replication stream into the local store
// and watches leader liveness. All HTTP handlers are mounted by the
// service under /v1/repl/.
type Follower struct {
	cfg    FollowerConfig
	client *http.Client

	mu            sync.Mutex
	epoch         uint64
	nextSeq       uint64 // next expected leader sequence number; 0 until first resync commit
	synced        bool
	stagingActive bool
	staging       []store.Record
	stagingSnaps  map[string][]byte
	lastHB        time.Time
	leaderSeq     uint64

	promoted  atomic.Bool
	promoteFn sync.Once
	done      chan struct{}
}

// NewFollower builds a follower, loading the persisted epoch.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	epoch, err := LoadEpoch(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	if cfg.RegisterEvery <= 0 {
		cfg.RegisterEvery = time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	cfg.Stats.State.Store(StateSyncing)
	return &Follower{cfg: cfg, client: client, epoch: epoch, done: make(chan struct{})}, nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logger != nil {
		f.cfg.Logger.Printf(format, args...)
	}
}

// Epoch returns the follower's current replication epoch.
func (f *Follower) Epoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// Synced reports whether at least one resync has committed, i.e. the
// local journal is a coherent copy of some leader state.
func (f *Follower) Synced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.synced
}

// MarkPromoted fences the old leader: it bumps and durably persists
// the epoch, after which every replication request carrying the old
// epoch is rejected with 409. Idempotent — a second call returns the
// already-bumped epoch without bumping again.
func (f *Follower) MarkPromoted() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted.Load() {
		return f.epoch, nil
	}
	next := f.epoch + 1
	if err := SaveEpoch(f.cfg.DataDir, next); err != nil {
		return f.epoch, err
	}
	f.epoch = next
	f.promoted.Store(true)
	close(f.done)
	f.logf("repl: promoted at epoch %d", next)
	return next, nil
}

// Run registers with the leader and watches heartbeats until ctx ends
// or the follower is promoted. It re-registers while the leader is
// silent (covering leader restarts that lost the persisted follower
// URL) and triggers OnPromote when PromoteAfter elapses with no
// heartbeat.
func (f *Follower) Run(ctx context.Context) {
	interval := f.cfg.RegisterEvery
	if f.cfg.PromoteAfter > 0 && f.cfg.PromoteAfter/4 < interval {
		interval = f.cfg.PromoteAfter / 4
	}
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	var lastRegister time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case <-f.done:
			return
		case now := <-t.C:
			f.mu.Lock()
			hb := f.lastHB
			synced := f.synced
			f.mu.Unlock()
			if f.promoted.Load() {
				return
			}
			// Auto-promote only when this standby has a coherent
			// journal AND positively saw the leader alive before it
			// went silent; a standby that never connected stays a
			// standby.
			if f.cfg.PromoteAfter > 0 && synced && !hb.IsZero() && now.Sub(hb) > f.cfg.PromoteAfter {
				f.promoteFn.Do(func() {
					f.logf("repl: leader heartbeat timeout (%.1fs), promoting", now.Sub(hb).Seconds())
					if f.cfg.OnPromote != nil {
						go f.cfg.OnPromote("leader heartbeat timeout")
					}
				})
				continue
			}
			// (Re-)register while the leader is silent.
			if hb.IsZero() || now.Sub(hb) > f.cfg.RegisterEvery {
				if now.Sub(lastRegister) >= f.cfg.RegisterEvery {
					lastRegister = now
					f.register(ctx)
				}
			}
		}
	}
}

func (f *Follower) register(ctx context.Context) {
	body, _ := json.Marshal(map[string]any{"url": f.cfg.SelfURL, "epoch": f.Epoch()})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(f.cfg.LeaderURL, "/")+"/v1/repl/register", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		f.logf("repl: registered with leader %s", f.cfg.LeaderURL)
	}
}

// checkEpoch enforces the fencing rules on an incoming replication
// request: a promoted follower rejects everything; a request from a
// lower epoch is a stale leader (409); a higher epoch is adopted and
// persisted. Returns false after writing the response.
func (f *Follower) checkEpoch(w http.ResponseWriter, r *http.Request) bool {
	if f.promoted.Load() {
		httpError(w, http.StatusConflict, "follower promoted (epoch %d): stale leader stream rejected", f.Epoch())
		return false
	}
	reqEpoch, err := strconv.ParseUint(r.Header.Get(HeaderEpoch), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "missing or bad %s header", HeaderEpoch)
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if reqEpoch < f.epoch {
		httpError(w, http.StatusConflict, "stale epoch %d (follower at %d)", reqEpoch, f.epoch)
		return false
	}
	if reqEpoch > f.epoch {
		if err := SaveEpoch(f.cfg.DataDir, reqEpoch); err != nil {
			httpError(w, http.StatusInternalServerError, "persist epoch: %v", err)
			return false
		}
		f.epoch = reqEpoch
	}
	return true
}

// Handler returns the follower's replication endpoints, to be mounted
// under /v1/repl/ by the service.
func (f *Follower) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/repl/apply", f.handleApply)
	mux.HandleFunc("POST /v1/repl/heartbeat", f.handleHeartbeat)
	mux.HandleFunc("POST /v1/repl/resync/begin", f.handleResyncBegin)
	mux.HandleFunc("POST /v1/repl/resync/chunk", f.handleResyncChunk)
	mux.HandleFunc("POST /v1/repl/resync/snapshot/{job}", f.handleResyncSnapshot)
	mux.HandleFunc("POST /v1/repl/resync/commit", f.handleResyncCommit)
	mux.HandleFunc("POST /v1/repl/snapshot/{job}", f.handleSnapshot)
	return mux
}

func (f *Follower) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxApplyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return nil, false
	}
	return data, true
}

// handleApply ingests a tail batch of journal frames. The batch is
// decoded and CRC-verified in full before anything is appended — a
// torn or corrupt body is rejected atomically with 400 and the
// follower's journal is untouched. Sequence continuity: a batch
// entirely at or below the applied cursor is acked as a duplicate, an
// overlapping batch has its stale prefix skipped, and a batch starting
// above the cursor is a gap — 409, which sends the leader back to a
// full resync.
func (f *Follower) handleApply(w http.ResponseWriter, r *http.Request) {
	if err := f.cfg.Faults.Check(fault.ReplApply); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !f.checkEpoch(w, r) {
		return
	}
	base, err := strconv.ParseUint(r.Header.Get(HeaderBaseSeq), 10, 64)
	if err != nil || base == 0 {
		httpError(w, http.StatusBadRequest, "missing or bad %s header", HeaderBaseSeq)
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	recs, err := DecodeFrames(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextSeq == 0 {
		httpError(w, http.StatusConflict, "resync required: follower has no sync base")
		return
	}
	count := uint64(len(recs))
	switch {
	case base+count <= f.nextSeq:
		// Pure duplicate (leader retry after a lost ack): ack without
		// re-appending.
	case base > f.nextSeq:
		httpError(w, http.StatusConflict, "sequence gap: batch base %d, expected %d", base, f.nextSeq)
		return
	default:
		fresh := recs[f.nextSeq-base:]
		if err := f.cfg.Store.AppendBatch(fresh); err != nil {
			httpError(w, http.StatusInternalServerError, "append: %v", err)
			return
		}
		f.nextSeq = base + count
		f.cfg.Stats.AppliedRecords.Add(int64(len(fresh)))
	}
	f.updateLagLocked()
	writeJSON(w, http.StatusOK, map[string]uint64{"applied_seq": f.nextSeq - 1})
}

func (f *Follower) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !f.checkEpoch(w, r) {
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	var hb struct {
		Seq uint64 `json:"seq"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &hb); err != nil {
			httpError(w, http.StatusBadRequest, "heartbeat body: %v", err)
			return
		}
	}
	f.mu.Lock()
	f.lastHB = time.Now()
	f.leaderSeq = hb.Seq
	f.updateLagLocked()
	f.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

func (f *Follower) updateLagLocked() {
	if !f.synced {
		return
	}
	lag := int64(f.leaderSeq) - int64(f.nextSeq-1)
	if lag < 0 {
		lag = 0
	}
	f.cfg.Stats.LagRecords.Store(lag)
	if lag == 0 {
		f.cfg.Stats.State.Store(StateStreaming)
	}
}

// handleResyncBegin opens a staging area for a full resync. Staged
// records and snapshots only become visible at commit, so a resync
// that dies mid-ship leaves the previous journal intact.
func (f *Follower) handleResyncBegin(w http.ResponseWriter, r *http.Request) {
	if !f.checkEpoch(w, r) {
		return
	}
	f.mu.Lock()
	f.stagingActive = true
	f.staging = nil
	f.stagingSnaps = make(map[string][]byte)
	f.mu.Unlock()
	f.cfg.Stats.State.Store(StateSyncing)
	f.cfg.Stats.Resyncs.Add(1)
	f.logf("repl: resync started")
	w.WriteHeader(http.StatusOK)
}

func (f *Follower) handleResyncChunk(w http.ResponseWriter, r *http.Request) {
	if err := f.cfg.Faults.Check(fault.ReplApply); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !f.checkEpoch(w, r) {
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	recs, err := DecodeFrames(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.stagingActive {
		httpError(w, http.StatusConflict, "no resync in progress")
		return
	}
	f.staging = append(f.staging, recs...)
	w.WriteHeader(http.StatusOK)
}

func (f *Follower) handleResyncSnapshot(w http.ResponseWriter, r *http.Request) {
	if !f.checkEpoch(w, r) {
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.stagingActive {
		httpError(w, http.StatusConflict, "no resync in progress")
		return
	}
	f.stagingSnaps[r.PathValue("job")] = body
	w.WriteHeader(http.StatusOK)
}

// handleResyncCommit atomically replaces the follower's journal with
// the staged record set (via the store's compaction rewrite, which is
// fsync + rename safe), installs the staged snapshots, and moves the
// applied cursor to the leader-reported sequence cursor.
func (f *Follower) handleResyncCommit(w http.ResponseWriter, r *http.Request) {
	if !f.checkEpoch(w, r) {
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Cursor uint64 `json:"cursor"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "commit body: %v", err)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.stagingActive {
		httpError(w, http.StatusConflict, "no resync in progress")
		return
	}
	// Note the staged record count may legitimately be below the
	// cursor: compaction on the leader drops settled history without
	// renumbering, so the cursor is a stream position, not a record
	// count. Staging completeness is the leader's responsibility — any
	// failed chunk POST aborts its resync before commit is ever sent.
	if err := f.cfg.Store.Compact(f.staging); err != nil {
		httpError(w, http.StatusInternalServerError, "commit staged journal: %v", err)
		return
	}
	for job, data := range f.stagingSnaps {
		if err := f.cfg.Store.WriteSnapshot(job, data); err != nil {
			httpError(w, http.StatusInternalServerError, "commit staged snapshot %s: %v", job, err)
			return
		}
	}
	// Sweep snapshots from a previous life that the leader no longer
	// has; a promote must not resume from a checkpoint the leader
	// already discarded.
	if ids, err := f.cfg.Store.SnapshotJobIDs(); err == nil {
		for _, id := range ids {
			if _, staged := f.stagingSnaps[id]; !staged {
				f.cfg.Store.DeleteSnapshots(id)
			}
		}
	}
	applied := int64(len(f.staging))
	f.nextSeq = req.Cursor + 1
	f.synced = true
	f.stagingActive = false
	f.staging = nil
	f.stagingSnaps = nil
	f.cfg.Stats.AppliedRecords.Add(applied)
	f.cfg.Stats.State.Store(StateStreaming)
	f.updateLagLocked()
	f.logf("repl: resync committed (%d records, cursor %d)", applied, req.Cursor)
	writeJSON(w, http.StatusOK, map[string]uint64{"applied_seq": f.nextSeq - 1})
}

// handleSnapshot installs a live checkpoint snapshot outside resync.
// Snapshots are an optimization for promote-time resume speed — the
// journal is the ground truth — so this path is fire-and-forget from
// the leader's point of view.
func (f *Follower) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !f.checkEpoch(w, r) {
		return
	}
	body, ok := f.readBody(w, r)
	if !ok {
		return
	}
	if err := f.cfg.Store.WriteSnapshot(r.PathValue("job"), body); err != nil {
		httpError(w, http.StatusInternalServerError, "write snapshot: %v", err)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// AppliedSeq returns the highest leader sequence number applied
// locally (0 before the first resync commit).
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.nextSeq == 0 {
		return 0
	}
	return f.nextSeq - 1
}

// Status renders the follower's replication view.
func (f *Follower) Status() StatusView {
	f.mu.Lock()
	defer f.mu.Unlock()
	v := StatusView{
		Role:       "follower",
		State:      StateName(f.cfg.Stats.State.Load()),
		Epoch:      f.epoch,
		Leader:     f.cfg.LeaderURL,
		LagRecords: f.cfg.Stats.LagRecords.Load(),
		Resyncs:    f.cfg.Stats.Resyncs.Load(),
	}
	if f.nextSeq > 0 {
		v.AppliedSeq = f.nextSeq - 1
	}
	if f.lastHB.IsZero() {
		v.SecondsSinceHeartbeat = -1
	} else {
		v.SecondsSinceHeartbeat = time.Since(f.lastHB).Seconds()
	}
	if f.promoted.Load() {
		v.Role = "leader"
		v.State = "promoted"
	}
	return v
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
