package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

// maxLogBytes bounds the frames one log response carries. A single
// frame larger than this is served alone.
const maxLogBytes = 1 << 20

// LeaderConfig configures the leader-side replicator.
type LeaderConfig struct {
	// Store is the leader's journal, compacted by recovery; polls are
	// served from its segment file and snapshots.
	Store *store.Store
	// Epoch is this leader's replication epoch (loaded from the data
	// dir at startup; bumped only by promotion).
	Epoch uint64
	// SemisyncTimeout is how long ago a poll must have advanced the
	// ack or found the follower caught up for WaitApplied to wait at
	// all. Required.
	SemisyncTimeout time.Duration
	// HeartbeatEvery is how long a caught-up poll is held before it is
	// answered empty; that empty answer is the follower's heartbeat.
	// Required.
	HeartbeatEvery time.Duration
	// Faults taps the repl.send injection point.
	Faults *fault.Injector
	// Stats receives state/lag/counter updates. Required.
	Stats *Stats
	// Logger receives replication lifecycle lines. May be nil.
	Logger *slog.Logger
}

// reply is the body of every 200 the leader sends a follower, except
// a snapshot image. A log poll fills the cursor fields, Head, Frames,
// Checkpoints and Hold; a resync listing fills Session, Seq, Off, Hold
// and Snapshots.
type reply struct {
	Epoch   uint64 `json:"epoch"`
	Session uint64 `json:"session,omitempty"`
	// Seq and Off are the cursor after Frames; the follower's next poll
	// sends them back. Seq is 0 on a resync read. A resync listing's
	// Seq and Off are the journal's sequence number and the committed
	// end of the session's segment where that record ends.
	Seq    uint64 `json:"seq"`
	Off    int64  `json:"off,omitempty"`
	Head   uint64 `json:"head,omitempty"` // the leader's journal seq, for lag
	Frames []byte `json:"frames,omitempty"`
	// Checkpoints lists jobs whose checkpoint changed since the
	// previous poll; the follower fetches each image.
	Checkpoints []string      `json:"checkpoints,omitempty"`
	Hold        time.Duration `json:"hold_ns,omitempty"`
	Snapshots   []string      `json:"snapshots,omitempty"`
}

// Replicator is the leader side. It runs no goroutines: it serves the
// follower's polls from the journal file, holds a caught-up poll until
// the journal grows, and exposes WaitApplied for semisync submit acks.
// A leader nobody polls keeps nothing per append.
type Replicator struct {
	// Handler serves the replication routes: GET /v1/repl/log,
	// /v1/repl/resync and /v1/repl/snapshot/{job}, and POST
	// /v1/repl/fence.
	http.Handler
	cfg LeaderConfig
	// session identifies this leader process: sequence numbers do not
	// survive a restart, so a cursor is only valid in its session.
	// Never 0, which a follower's cursor holds before its first resync.
	session uint64
	// seg and base are the append target and the journal sequence
	// number when the session began, after recovery compacted the
	// journal. Only Compact starts a segment, so the session's records
	// all live in seg; once it is gone every read answers 409.
	seg  int
	base uint64

	mu    sync.Mutex
	cond  *sync.Cond // ack progress, halt
	acked uint64
	// contact is when a poll last advanced the ack or found the
	// follower caught up; holding counts caught-up polls being held.
	contact time.Time
	holding int
	// seen is when a follower request last passed admit; resyncing is
	// set by a resync listing and cleared by the next tail poll. With
	// holding they give the state Status reports.
	seen      time.Time
	resyncing bool
	// following is set by the first resync of the session; from then
	// on dirty collects the ids of jobs whose checkpoint changed, and
	// dirtied, while a poll is held, is closed by the next change.
	following bool
	dirty     map[string]bool
	dirtied   chan struct{}
	halted    bool
	stop      chan struct{} // closed by halt: releases held polls
	rejected  atomic.Bool
}

// NewReplicator builds the leader replicator for a journal that
// recovery has compacted to one segment.
func NewReplicator(cfg LeaderConfig) *Replicator {
	r := &Replicator{cfg: cfg, session: rand.Uint64() | 1, dirty: map[string]bool{}, stop: make(chan struct{})}
	r.seg, _, r.base = cfg.Store.Position()
	r.cond = sync.NewCond(&r.mu)
	r.cfg.Stats.State.Store(StateIdle)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/repl/log", r.serveLog)
	mux.HandleFunc("GET /v1/repl/resync", r.serveResync)
	mux.HandleFunc("GET /v1/repl/snapshot/{job}", r.serveSnapshot)
	mux.HandleFunc("POST /v1/repl/fence", r.serveFence)
	r.Handler = mux
	return r
}

// MarkDirty notes that jobID's checkpoint changed, so the next poll
// lists it and the follower fetches the image. Only the id is kept,
// and only once a follower has resynced: a resync lists every
// snapshot anyway.
func (r *Replicator) MarkDirty(jobID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.following && !r.rejected.Load() {
		r.dirty[jobID] = true
		if r.dirtied != nil {
			close(r.dirtied)
			r.dirtied = nil
		}
	}
}

// WaitApplied blocks until the follower has acknowledged sequence
// number seq, returning true. It returns false when ctx expires, when
// the replicator is fenced or closed, and at once when no poll has
// advanced the ack or found the follower caught up within the
// semisync timeout — the semisync fallback cases.
func (r *Replicator) WaitApplied(ctx context.Context, seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.holding == 0 && time.Since(r.contact) > r.cfg.SemisyncTimeout {
		return false
	}
	defer context.AfterFunc(ctx, func() {
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})()
	for r.acked < seq && !r.halted && ctx.Err() == nil {
		r.cond.Wait()
	}
	return r.acked >= seq
}

// AckedSeq returns the highest follower-acknowledged sequence number.
func (r *Replicator) AckedSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.acked
}

// Close releases held polls and semisync waiters.
func (r *Replicator) Close() { r.halt(false, 0) }

// halt stops the replicator. With fenced set it is the terminal
// rejected state: a peer is at a higher epoch, so a node was promoted
// past this leader.
func (r *Replicator) halt(fenced bool, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if fenced && r.rejected.CompareAndSwap(false, true) {
		r.cfg.Stats.State.Store(StateRejected)
		logf(r.cfg.Logger, "repl: fenced: a peer is at epoch %d, this leader at %d", epoch, r.cfg.Epoch)
	}
	if !r.halted {
		r.halted = true
		close(r.stop)
	}
	r.cond.Broadcast()
}

// Status renders the leader's replication view and refreshes the
// state and lag in Stats from it. The state is derived, not stored at
// each poll: no poll ever is idle, no poll held and none admitted
// within the semisync timeout is disconnected, a listing not yet
// followed by a tail poll is syncing, anything else streaming. The lag
// is the journal head minus the ack.
func (r *Replicator) Status() StatusView {
	head := r.cfg.Store.Seq()
	r.mu.Lock()
	defer r.mu.Unlock()
	state, lag := StateStreaming, max(int64(head)-int64(r.acked), 0)
	switch {
	case r.rejected.Load():
		state = StateRejected
	case r.seen.IsZero():
		state, lag = StateIdle, 0
	case r.holding == 0 && time.Since(r.seen) > r.cfg.SemisyncTimeout:
		state = StateDisconnected
	case r.resyncing:
		state = StateSyncing
	}
	r.cfg.Stats.State.Store(state)
	r.cfg.Stats.LagRecords.Store(lag)
	return StatusView{
		Role:              "leader",
		State:             StateName(state),
		Epoch:             r.cfg.Epoch,
		LagRecords:        lag,
		AckedSeq:          r.acked,
		Resyncs:           r.cfg.Stats.Resyncs.Load(),
		SemisyncFallbacks: r.cfg.Stats.SemisyncFallbacks.Load(),
	}
}

// admit runs the checks every served request shares: the repl.send
// fault point and epoch fencing. A request from a higher epoch fences
// this leader, and a fenced leader answers 409 to everything.
func (r *Replicator) admit(w http.ResponseWriter, req *http.Request) bool {
	if err := r.cfg.Faults.Check(fault.ReplSend); err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return false
	}
	epoch, err := strconv.ParseUint(req.URL.Query().Get("epoch"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "missing or bad epoch")
		return false
	}
	if epoch > r.cfg.Epoch {
		r.halt(true, epoch)
	}
	if r.rejected.Load() {
		httpError(w, http.StatusConflict, "fenced: a node was promoted past epoch %d", r.cfg.Epoch)
		return false
	}
	r.mu.Lock()
	r.seen = time.Now()
	r.mu.Unlock()
	return true
}

// serveLog answers a poll for the frames after a cursor. A tail poll
// carries seq, which is also the follower's ack; a resync read omits it
// and is neither an ack nor ever held. A caught-up tail poll is held
// until the journal grows or the heartbeat interval passes.
func (r *Replicator) serveLog(w http.ResponseWriter, req *http.Request) {
	if !r.admit(w, req) {
		return
	}
	q := req.URL.Query()
	session, err1 := strconv.ParseUint(q.Get("session"), 10, 64)
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		httpError(w, http.StatusBadRequest, "bad cursor: %v", err)
		return
	}
	if session != r.session {
		httpError(w, http.StatusConflict, "cursor from another leader session: resync")
		return
	}
	tail := q.Has("seq")
	var seq uint64
	if tail {
		var err error
		if seq, err = strconv.ParseUint(q.Get("seq"), 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad cursor seq: %v", err)
			return
		}
		head := r.cfg.Store.Seq()
		if seq > head {
			httpError(w, http.StatusBadRequest, "cursor seq %d beyond journal head %d", seq, head)
			return
		}
		if seq < r.base {
			httpError(w, http.StatusConflict, "cursor seq %d before this session's base %d: resync", seq, r.base)
			return
		}
	}

	// The first read that validates the cursor records the ack; a
	// caught-up tail poll is then held and reads again on an append.
	deadline := time.Now().Add(r.cfg.HeartbeatEvery)
	acked := !tail
	var (
		frames []byte
		n      int
		head   uint64
		err    error
	)
	for {
		var wake <-chan struct{}
		head, wake = r.cfg.Store.Watch()
		frames, n, err = r.cfg.Store.ReadFrom(r.seg, off, maxLogBytes)
		switch {
		case errors.Is(err, store.ErrSegmentGone):
			httpError(w, http.StatusConflict, "%v: resync", err)
			return
		case errors.Is(err, store.ErrBadOffset):
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if !acked {
			r.ack(seq, head)
			acked = true
		}
		if n > 0 || !tail || !r.hold(req.Context(), wake, deadline) {
			break
		}
	}
	if r.rejected.Load() {
		httpError(w, http.StatusConflict, "fenced: a node was promoted past epoch %d", r.cfg.Epoch)
		return
	}
	rep := reply{
		Epoch: r.cfg.Epoch, Off: off + int64(len(frames)), Head: head,
		Hold: r.cfg.HeartbeatEvery, Frames: frames,
	}
	r.cfg.Stats.SentRecords.Add(int64(n))
	if tail {
		rep.Seq = seq + uint64(n)
		r.mu.Lock()
		rep.Checkpoints = slices.Collect(maps.Keys(r.dirty))
		clear(r.dirty)
		r.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, rep)
}

// ack records a tail poll's cursor as the follower's ack.
func (r *Replicator) ack(seq, head uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resyncing = false
	if seq > r.acked || seq == head {
		r.contact = time.Now()
	}
	if seq > r.acked {
		r.acked = seq
		r.cond.Broadcast()
	}
}

// hold parks a caught-up poll until the journal grows (true: read
// again), or a checkpoint changes, the deadline passes, the request
// ends or the replicator stops (false: answer now). A poll answered
// while the follower is still there found it caught up: contact.
func (r *Replicator) hold(ctx context.Context, wake <-chan struct{}, deadline time.Time) bool {
	r.mu.Lock()
	if len(r.dirty) > 0 {
		r.mu.Unlock()
		return false
	}
	r.holding++
	if r.dirtied == nil {
		r.dirtied = make(chan struct{})
	}
	dirtied := r.dirtied
	r.mu.Unlock()
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	grew := false
	select {
	case <-wake:
		grew = true
	case <-dirtied:
	case <-t.C:
	case <-ctx.Done():
	case <-r.stop:
	}
	r.mu.Lock()
	r.holding--
	if ctx.Err() == nil {
		r.contact = time.Now()
	}
	r.mu.Unlock()
	return grew
}

// serveResync lists what a follower needs to rebuild its journal: the
// session segment's committed end and the sequence number there, taken
// atomically, and the jobs with a snapshot. The follower reads the
// segment up to that end through serveLog.
func (r *Replicator) serveResync(w http.ResponseWriter, req *http.Request) {
	if !r.admit(w, req) {
		return
	}
	r.mu.Lock()
	r.following, r.resyncing = true, true
	clear(r.dirty)
	r.mu.Unlock()
	_, end, seq := r.cfg.Store.Position()
	ids, err := r.cfg.Store.SnapshotJobIDs()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	r.cfg.Stats.Resyncs.Add(1)
	logf(r.cfg.Logger, "repl: serving full resync (cursor %d, %d bytes, %d snapshots)", seq, end-store.SegmentHeaderLen, len(ids))
	writeJSON(w, http.StatusOK, reply{Epoch: r.cfg.Epoch, Session: r.session, Seq: seq, Off: end, Hold: r.cfg.HeartbeatEvery, Snapshots: ids})
}

// serveSnapshot returns a job's current checkpoint image.
func (r *Replicator) serveSnapshot(w http.ResponseWriter, req *http.Request) {
	if !r.admit(w, req) {
		return
	}
	imgs, err := r.cfg.Store.LoadSnapshots(req.PathValue("job"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(imgs) == 0 {
		httpError(w, http.StatusNotFound, "no snapshot for job %q", req.PathValue("job"))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(imgs[0])
}

// serveFence is the promoted node's post. admit does the fencing: an
// epoch above this leader's fences it, and the 409 a fenced leader
// answers ends the poster's retries. Any other epoch is refused with
// 409 as well.
func (r *Replicator) serveFence(w http.ResponseWriter, req *http.Request) {
	if r.admit(w, req) {
		httpError(w, http.StatusConflict, "epoch %s does not supersede this leader's epoch %d", req.URL.Query().Get("epoch"), r.cfg.Epoch)
	}
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
