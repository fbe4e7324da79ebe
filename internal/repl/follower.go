package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

const (
	// maxReplyBytes bounds one reply body: a log response or a
	// checkpoint image.
	maxReplyBytes = 64 << 20
	// transferAllowance is added to twice the leader's reported hold
	// to give each request its deadline.
	transferAllowance = 5 * time.Second
	// retryPause is the wait before the next request after a failed
	// one.
	retryPause = 100 * time.Millisecond
)

var (
	// errResync: the leader refused the cursor (another session, a
	// compacted segment, out of range); only a full resync helps.
	errResync = errors.New("repl: leader requires a resync")
	// errMissing: the leader has no snapshot for the job (it settled).
	errMissing = errors.New("repl: snapshot not on leader")
	// errPromoted: this node was promoted while a response was in
	// flight; nothing more is applied.
	errPromoted = errors.New("repl: follower promoted")
)

// FollowerConfig configures the standby side.
type FollowerConfig struct {
	// Store is the follower's own journal; the leader's log is applied
	// into it.
	Store *store.Store
	// LeaderURL is the base URL of the leader to poll.
	LeaderURL string
	// PromoteAfter auto-promotes when the leader has answered no
	// request for this long, once a resync has committed. Zero
	// disables auto-promote.
	PromoteAfter time.Duration
	// OnPromote is invoked (once) by the watchdog when PromoteAfter
	// fires; the callback runs the service's promote path. Manual
	// promotion goes through the service directly.
	OnPromote func(reason string)
	// Faults taps the repl.apply injection point.
	Faults *fault.Injector
	// Stats receives state/lag/counter updates. Required.
	Stats *Stats
	// Logger receives replication lifecycle lines. May be nil.
	Logger *slog.Logger
}

// Follower pulls a leader's journal into the local store and watches
// leader liveness. It mounts no HTTP handler: everything it applies
// comes from responses to its own requests.
type Follower struct {
	cfg FollowerConfig

	// mu also serialises journal writes with MarkPromoted, so a
	// promote never races an apply.
	mu    sync.Mutex
	epoch uint64
	// session, seq and off are the cursor: the leader session it
	// belongs to (0 until the first resync commits, never after), the
	// last applied leader sequence number, and the byte offset in the
	// session's segment where it ends.
	session  uint64
	seq      uint64
	off      int64
	hold     time.Duration // the leader's reported poll hold
	lastHB   time.Time     // when the leader last answered 200
	promoted bool
	stopRun  context.CancelFunc // Run's, called by MarkPromoted
}

// NewFollower builds a follower, loading the persisted epoch.
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	epoch, err := LoadEpoch(cfg.Store.Dir())
	if err != nil {
		return nil, err
	}
	cfg.Stats.State.Store(StateSyncing)
	return &Follower{cfg: cfg, epoch: epoch}, nil
}

// Synced reports whether at least one resync has committed, i.e. the
// local journal is a coherent copy of some leader state.
func (f *Follower) Synced() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.session != 0
}

// AppliedSeq returns the highest leader sequence number applied
// locally (0 before the first resync commit).
func (f *Follower) AppliedSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// MarkPromoted bumps and durably persists the epoch and stops
// applying: it waits for an apply in progress, and nothing is applied
// after it returns. Idempotent — a second call returns the
// already-bumped epoch without bumping again.
func (f *Follower) MarkPromoted() (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return f.epoch, nil
	}
	next := f.epoch + 1
	if err := SaveEpoch(f.cfg.Store.Dir(), next); err != nil {
		return f.epoch, err
	}
	f.epoch = next
	f.promoted = true
	if f.stopRun != nil {
		f.stopRun()
	}
	logf(f.cfg.Logger, "repl: promoted at epoch %d", next)
	return next, nil
}

// Run follows the leader until ctx ends or the follower is promoted:
// a full resync while it has no valid cursor, then one long poll after
// another, each response applied before the next poll is sent. With
// PromoteAfter set, a watchdog promotes once the leader has been
// silent that long. After a promote, Run posts the new epoch to the
// old leader on the leader's heartbeat cadence until the post is
// answered, so a stale leader that is still alive moves to
// StateRejected and stops waiting for acks.
func (f *Follower) Run(ctx context.Context) {
	var wg sync.WaitGroup
	defer wg.Wait()
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.mu.Lock()
	if f.stopRun = cancel; f.promoted {
		cancel()
	}
	f.mu.Unlock()
	if f.cfg.PromoteAfter > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.watchdog(pctx)
		}()
	}
	needResync, failing := true, false
	for pctx.Err() == nil {
		var err error
		if needResync {
			err = f.resync(pctx)
			needResync = err != nil
		} else if err = f.poll(pctx); errors.Is(err, errResync) {
			logf(f.cfg.Logger, "repl: %v", err)
			needResync = true
			continue
		}
		if err == nil || pctx.Err() != nil {
			failing = false
			continue
		}
		if !failing {
			logf(f.cfg.Logger, "repl: leader %s: %v; retrying", f.cfg.LeaderURL, err)
			failing = true
		}
		f.cfg.Stats.State.Store(StateDisconnected)
		select {
		case <-pctx.Done():
		case <-time.After(retryPause):
		}
	}
	f.mu.Lock()
	every := max(f.hold, retryPause)
	f.mu.Unlock()
	t := time.NewTicker(every)
	defer t.Stop()
	for ctx.Err() == nil {
		err := f.call(ctx, http.MethodPost, "/v1/repl/fence"+f.query(), new(reply))
		if err == nil || errors.Is(err, errResync) {
			logf(f.cfg.Logger, "repl: fence post to %s answered (%v)", f.cfg.LeaderURL, err)
			return
		}
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
}

// watchdog promotes a synced follower whose leader has not answered a
// request for PromoteAfter. A standby that never heard from its leader
// stays a standby.
func (f *Follower) watchdog(ctx context.Context) {
	t := time.NewTicker(max(f.cfg.PromoteAfter/4, 10*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			f.mu.Lock()
			hb, synced := f.lastHB, f.session != 0
			f.mu.Unlock()
			if synced && now.Sub(hb) > f.cfg.PromoteAfter {
				logf(f.cfg.Logger, "repl: leader silent for %.1fs, promoting", now.Sub(hb).Seconds())
				if f.cfg.OnPromote != nil {
					f.cfg.OnPromote("leader heartbeat timeout")
				}
				return
			}
		}
	}
}

// call sends one request to the leader with a deadline of twice the
// leader's reported hold plus a transfer allowance. A 200's body is
// decoded into out (a *[]byte takes it raw); 409 and 400
// mean the cursor is no good (errResync), 404 that a snapshot is gone
// (errMissing).
func (f *Follower) call(ctx context.Context, method, path string, out any) error {
	f.mu.Lock()
	hold := f.hold
	f.mu.Unlock()
	ctx, cancel := context.WithTimeout(ctx, 2*hold+transferAllowance)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(f.cfg.LeaderURL, "/")+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(http.MaxBytesReader(nil, resp.Body, maxReplyBytes))
	switch {
	case err != nil:
		return err
	case resp.StatusCode == http.StatusConflict || resp.StatusCode == http.StatusBadRequest:
		return fmt.Errorf("%w: %s", errResync, strings.TrimSpace(string(body)))
	case resp.StatusCode == http.StatusNotFound:
		return errMissing
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("repl: leader %s -> %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	f.mu.Lock()
	f.lastHB = time.Now()
	f.mu.Unlock()
	if raw, ok := out.(*[]byte); ok {
		*raw = body
		return nil
	}
	return json.Unmarshal(body, out)
}

// query renders key/value pairs plus this node's epoch, which every
// leader route takes.
func (f *Follower) query(kv ...string) string {
	f.mu.Lock()
	q := url.Values{"epoch": {strconv.FormatUint(f.epoch, 10)}}
	f.mu.Unlock()
	for i := 0; i+1 < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	return "?" + q.Encode()
}

// apply runs write against the local store under f.mu unless this
// node was promoted, first adopting a higher leader epoch.
func (f *Follower) apply(epoch uint64, write func() error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return errPromoted
	}
	if epoch > f.epoch {
		if err := SaveEpoch(f.cfg.Store.Dir(), epoch); err != nil {
			return err
		}
		f.epoch = epoch
	}
	return write()
}

// poll sends the cursor, applies the frames that come back, then
// fetches the checkpoints the leader listed.
func (f *Follower) poll(ctx context.Context) error {
	f.mu.Lock()
	session, seq, off := f.session, f.seq, f.off
	f.mu.Unlock()
	var rep reply
	q := f.query("session", strconv.FormatUint(session, 10), "seq", strconv.FormatUint(seq, 10), "off", strconv.FormatInt(off, 10))
	if err := f.call(ctx, http.MethodGet, "/v1/repl/log"+q, &rep); err != nil {
		return err
	}
	// Strict: a torn or corrupt response fails whole, so an apply is
	// all-or-nothing.
	recs, err := store.DecodeFrames(rep.Frames)
	if err != nil {
		return err
	}
	if err := f.cfg.Faults.Check(fault.ReplApply); err != nil {
		return err
	}
	err = f.apply(rep.Epoch, func() error {
		if err := f.cfg.Store.AppendBatch(recs); err != nil {
			return err
		}
		f.seq, f.off, f.hold = rep.Seq, rep.Off, rep.Hold
		f.cfg.Stats.AppliedRecords.Add(int64(len(recs)))
		f.cfg.Stats.LagRecords.Store(max(int64(rep.Head)-int64(rep.Seq), 0))
		f.cfg.Stats.State.Store(StateStreaming)
		return nil
	})
	if err != nil {
		return err
	}
	for _, job := range rep.Checkpoints {
		var img []byte
		err := f.call(ctx, http.MethodGet, "/v1/repl/snapshot/"+url.PathEscape(job)+f.query(), &img)
		if err == nil {
			err = f.apply(rep.Epoch, func() error { return f.cfg.Store.WriteSnapshot(job, img) })
		}
		if err != nil && !errors.Is(err, errMissing) {
			logf(f.cfg.Logger, "repl: checkpoint of %s not replicated: %v", job, err)
		}
	}
	return nil
}

// resync rebuilds the local journal from the leader's: it lists the
// session segment's committed end, reads the segment up to it, fetches
// every snapshot, and commits all of it at once. A resync that dies
// part-way leaves the old journal intact.
func (f *Follower) resync(ctx context.Context) error {
	f.cfg.Stats.State.Store(StateSyncing)
	f.cfg.Stats.Resyncs.Add(1)
	var rs reply
	if err := f.call(ctx, http.MethodGet, "/v1/repl/resync"+f.query(), &rs); err != nil {
		return err
	}
	// One read after another from the first frame to the listed end;
	// frames appended since the listing are cut off.
	off := int64(store.SegmentHeaderLen)
	var staged []store.Record
	for off < rs.Off {
		var rep reply
		q := f.query("session", strconv.FormatUint(rs.Session, 10), "off", strconv.FormatInt(off, 10))
		if err := f.call(ctx, http.MethodGet, "/v1/repl/log"+q, &rep); err != nil {
			return err
		}
		frames := rep.Frames[:min(int64(len(rep.Frames)), rs.Off-off)]
		if len(frames) == 0 {
			return fmt.Errorf("repl: resync read stalled at offset %d", off)
		}
		recs, err := store.DecodeFrames(frames)
		if err != nil {
			return err
		}
		staged = append(staged, recs...)
		off += int64(len(frames))
	}
	snaps := map[string][]byte{}
	for _, job := range rs.Snapshots {
		var img []byte
		switch err := f.call(ctx, http.MethodGet, "/v1/repl/snapshot/"+url.PathEscape(job)+f.query(), &img); {
		case err == nil:
			snaps[job] = img
		case !errors.Is(err, errMissing): // a job settled since the listing has none
			return err
		}
	}
	if err := f.cfg.Faults.Check(fault.ReplApply); err != nil {
		return err
	}
	err := f.apply(rs.Epoch, func() error {
		if err := f.commit(staged, snaps); err != nil {
			return err
		}
		f.session, f.seq, f.off, f.hold = rs.Session, rs.Seq, rs.Off, rs.Hold
		return nil
	})
	if err != nil {
		return err
	}
	f.cfg.Stats.AppliedRecords.Add(int64(len(staged)))
	f.cfg.Stats.LagRecords.Store(0)
	f.cfg.Stats.State.Store(StateStreaming)
	logf(f.cfg.Logger, "repl: resync committed (%d records, %d snapshots, cursor %d)", len(staged), len(snaps), rs.Seq)
	return nil
}

// commit replaces the local journal with the staged records (the
// store's compaction rewrite, fsync + rename safe), installs the staged
// snapshots and sweeps every other one: a promote must not resume from
// a checkpoint the leader already discarded. The staged record count
// may be below the cursor, because the leader's startup compaction
// drops settled history without renumbering.
func (f *Follower) commit(staged []store.Record, snaps map[string][]byte) error {
	if err := f.cfg.Store.Compact(staged); err != nil {
		return fmt.Errorf("repl: commit staged journal: %w", err)
	}
	for job, data := range snaps {
		if err := f.cfg.Store.WriteSnapshot(job, data); err != nil {
			return fmt.Errorf("repl: commit staged snapshot %s: %w", job, err)
		}
	}
	ids, err := f.cfg.Store.SnapshotJobIDs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		if _, ok := snaps[id]; !ok {
			f.cfg.Store.DeleteSnapshots(id)
		}
	}
	return nil
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
		AppliedSeq: f.seq,
		Resyncs:    f.cfg.Stats.Resyncs.Load(),
	}
	if f.lastHB.IsZero() {
		v.SecondsSinceHeartbeat = -1
	} else {
		v.SecondsSinceHeartbeat = time.Since(f.lastHB).Seconds()
	}
	if f.promoted {
		v.Role = "leader"
		v.State = "promoted"
	}
	return v
}
