package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosparse/internal/fault"
	"cosparse/internal/store"
)

func testStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitRec(id string) store.Record {
	return store.Record{Type: store.RecSubmit, JobID: id, Request: json.RawMessage(`{"algo":"pr"}`), TimeoutMS: 1000}
}

func replay(t *testing.T, st *store.Store) []store.Record {
	t.Helper()
	recs, err := st.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func encodeFrames(t *testing.T, recs ...store.Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		f, err := store.EncodeFrame(r)
		if err != nil {
			t.Fatalf("EncodeFrame: %v", err)
		}
		buf = append(buf, f...)
	}
	return buf
}

func TestFrameRoundTrip(t *testing.T) {
	want := []store.Record{
		submitRec("j1"),
		{Type: store.RecStart, JobID: "j1"},
		{Type: store.RecGraph, GraphID: "g1", GraphSpec: json.RawMessage(`{"kind":"powerlaw"}`)},
		{Type: store.RecFinish, JobID: "j1", State: "done"},
	}
	got, err := store.DecodeFrames(encodeFrames(t, want...))
	if err != nil {
		t.Fatalf("DecodeFrames: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].JobID != want[i].JobID || got[i].GraphID != want[i].GraphID {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if recs, err := store.DecodeFrames(nil); err != nil || len(recs) != 0 {
		t.Errorf("store.DecodeFrames(nil) = (%v, %v), want empty ok", recs, err)
	}
}

func TestDecodeFramesAtomicOnCorruption(t *testing.T) {
	clean := encodeFrames(t, submitRec("j1"), submitRec("j2"))

	// Torn tail: everything-or-nothing, even though the first frame is
	// intact.
	if recs, err := store.DecodeFrames(clean[:len(clean)-3]); err == nil || recs != nil {
		t.Errorf("torn tail: got (%v, %v), want (nil, error)", recs, err)
	}
	// Flipped payload byte in the second frame.
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-2] ^= 0xff
	if recs, err := store.DecodeFrames(corrupt); err == nil || recs != nil {
		t.Errorf("corrupt payload: got (%v, %v), want (nil, error)", recs, err)
	}
	// Trailing garbage after valid frames.
	if recs, err := store.DecodeFrames(append(append([]byte(nil), clean...), 0x01)); err == nil || recs != nil {
		t.Errorf("trailing garbage: got (%v, %v), want (nil, error)", recs, err)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeAsync, "async": ModeAsync, "semisync": ModeSemiSync, "SemiSync": ModeSemiSync} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("paxos"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
}

func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	if e, err := LoadEpoch(dir); err != nil || e != 0 {
		t.Fatalf("LoadEpoch(empty) = (%d, %v), want (0, nil)", e, err)
	}
	if err := SaveEpoch(dir, 7); err != nil {
		t.Fatalf("SaveEpoch: %v", err)
	}
	if e, err := LoadEpoch(dir); err != nil || e != 7 {
		t.Fatalf("LoadEpoch = (%d, %v), want (7, nil)", e, err)
	}
	if _, err := os.Stat(filepath.Join(dir, epochFile+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("SaveEpoch left its temporary file behind (%v)", err)
	}
	if err := SaveEpoch(filepath.Join(dir, "missing"), 8); err == nil {
		t.Fatal("SaveEpoch into a missing directory reported success")
	}
}

// leaderFixture is a real Replicator over a real store behind an
// httptest server.
type leaderFixture struct {
	rep   *Replicator
	store *store.Store
	stats *Stats
	srv   *httptest.Server
}

func newLeaderFixture(t *testing.T, recs ...store.Record) *leaderFixture {
	t.Helper()
	st := testStore(t, t.TempDir())
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	stats := &Stats{}
	rep := NewReplicator(LeaderConfig{Store: st, Stats: stats, SemisyncTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond})
	srv := httptest.NewServer(rep)
	t.Cleanup(func() {
		rep.Close()
		srv.Close()
	})
	return &leaderFixture{rep: rep, store: st, stats: stats, srv: srv}
}

// get issues a raw replication GET and returns its status and body.
func (lx *leaderFixture) get(t *testing.T, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(lx.srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func newTestFollower(t *testing.T, leaderURL string) (*Follower, *store.Store, *Stats) {
	t.Helper()
	dir := t.TempDir()
	st := testStore(t, dir)
	stats := &Stats{}
	f, err := NewFollower(FollowerConfig{Store: st, LeaderURL: leaderURL, Stats: stats})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	return f, st, stats
}

// runFollower runs f until the test ends.
func runFollower(t *testing.T, f *Follower) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// cursorQuery renders f's cursor as a log query at the given epoch.
func cursorQuery(f *Follower, epoch uint64) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fmt.Sprintf("/v1/repl/log?epoch=%d&session=%d&seq=%d&off=%d", epoch, f.session, f.seq, f.off)
}

func jobIDs(recs []store.Record) []string {
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.JobID)
	}
	return ids
}

func TestFollowerRejectsTornBatchAtomically(t *testing.T) {
	// A scripted leader: an empty journal to resync from, then
	// whatever log reply the test sets.
	var next atomic.Pointer[reply]
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/resync" {
			writeJSON(w, http.StatusOK, reply{Session: 7, Off: store.SegmentHeaderLen})
			return
		}
		writeJSON(w, http.StatusOK, next.Load())
	}))
	defer fake.Close()
	f, fStore, _ := newTestFollower(t, fake.URL)
	ctx := context.Background()
	if err := f.resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}

	clean := encodeFrames(t, submitRec("j1"), submitRec("j2"))
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-2] ^= 0xff
	for name, frames := range map[string][]byte{"torn": clean[:len(clean)-3], "crc": corrupt} {
		next.Store(&reply{Seq: 2, Off: store.SegmentHeaderLen + int64(len(frames)), Head: 2, Frames: frames})
		if err := f.poll(ctx); err == nil {
			t.Fatalf("%s response applied without error", name)
		}
		if recs := replay(t, fStore); len(recs) != 0 {
			t.Fatalf("%s response half-applied: journal has %d records", name, len(recs))
		}
		if f.AppliedSeq() != 0 {
			t.Fatalf("%s response moved the cursor to %d", name, f.AppliedSeq())
		}
	}
	// The identical clean response then applies in full.
	next.Store(&reply{Seq: 2, Off: store.SegmentHeaderLen + int64(len(clean)), Head: 2, Frames: clean})
	if err := f.poll(ctx); err != nil {
		t.Fatalf("clean poll: %v", err)
	}
	if recs := replay(t, fStore); len(recs) != 2 || f.AppliedSeq() != 2 {
		t.Fatalf("clean poll landed %d records at seq %d, want 2 at 2", len(recs), f.AppliedSeq())
	}
}

func TestFollowerSequenceContinuity(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"), submitRec("j2"))
	f, fStore, _ := newTestFollower(t, lx.srv.URL)
	ctx := context.Background()
	if err := f.resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if err := lx.store.Append(submitRec("j3")); err != nil {
		t.Fatal(err)
	}
	// A poll whose response is lost: the follower sends the same
	// cursor again, and the leader's ack does not move past it.
	if code, body := lx.get(t, cursorQuery(f, 0)); code != http.StatusOK {
		t.Fatalf("lost poll -> %d %s", code, body)
	}
	if err := f.poll(ctx); err != nil {
		t.Fatalf("poll: %v", err)
	}
	// Caught up: the held poll answers empty and re-applies nothing.
	if err := f.poll(ctx); err != nil {
		t.Fatalf("caught-up poll: %v", err)
	}
	recs := replay(t, fStore)
	if got := jobIDs(recs); len(got) != 3 || got[2] != "j3" {
		t.Fatalf("follower journal = %v, want [j1 j2 j3]", got)
	}
	if f.AppliedSeq() != 3 || lx.rep.AckedSeq() != 3 {
		t.Fatalf("AppliedSeq = %d, leader AckedSeq = %d, want 3 and 3", f.AppliedSeq(), lx.rep.AckedSeq())
	}
}

func TestCursorFromAnotherSessionResyncsOnce(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"))
	var h atomic.Pointer[http.Handler]
	var first http.Handler = lx.rep
	h.Store(&first)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*h.Load()).ServeHTTP(w, r) }))
	defer srv.Close()
	f, fStore, fStats := newTestFollower(t, srv.URL)
	runFollower(t, f)
	waitFor(t, "first resync", f.Synced)

	// A new leader process on the same journal: a new session whose
	// base is the current head.
	if err := lx.store.Append(submitRec("j2")); err != nil {
		t.Fatal(err)
	}
	rep2 := NewReplicator(LeaderConfig{Store: lx.store, Stats: &Stats{}, SemisyncTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond})
	defer rep2.Close()
	stale := cursorQuery(f, 0)
	var second http.Handler = rep2
	h.Store(&second)
	if code, _ := lx.get(t, stale); code != http.StatusOK {
		t.Fatalf("old session's cursor on the old leader -> %d", code)
	}
	code, body := func() (int, string) {
		resp, err := http.Get(srv.URL + stale)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}()
	if code != http.StatusConflict {
		t.Fatalf("old session's cursor on a new session -> %d %s, want 409", code, body)
	}
	before := fmt.Sprintf("/v1/repl/log?epoch=0&session=%d&seq=0&off=%d", rep2.session, store.SegmentHeaderLen)
	resp, err := http.Get(srv.URL + before)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cursor before the session's base -> %d, want 409", resp.StatusCode)
	}

	if err := lx.store.Append(submitRec("j3")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up on the new session", func() bool { return rep2.AckedSeq() == 3 })
	if got := fStats.Resyncs.Load(); got != 2 {
		t.Fatalf("follower resyncs = %d, want 2 (the first sync and one for the new session)", got)
	}
	recs := replay(t, fStore)
	if got := jobIDs(recs); len(got) != 3 || got[0] != "j1" || got[2] != "j3" {
		t.Fatalf("follower journal = %v, want [j1 j2 j3]", got)
	}
}

func TestMalformedCursorIsBadRequest(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"), submitRec("j2"))
	_, end, _ := lx.store.Position()
	sess := lx.rep.session
	for _, q := range []string{
		"session=1&seq=0&off=8",
		fmt.Sprintf("epoch=x&session=%d&seq=0&off=8", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=0&off=eight", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=0", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=-1&off=8", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=2&off=4", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=2&off=%d", sess, end+1),
		fmt.Sprintf("epoch=0&session=%d&seq=2&off=9", sess),
		fmt.Sprintf("epoch=0&session=%d&seq=3&off=%d", sess, end),
		fmt.Sprintf("epoch=0&session=%d&off=-8", sess),
	} {
		if code, body := lx.get(t, "/v1/repl/log?"+q); code != http.StatusBadRequest {
			t.Errorf("%s -> %d %s, want 400", q, code, body)
		}
	}
	if code, _ := lx.get(t, "/v1/repl/snapshot/..%2Fescape?epoch=0"); code != http.StatusBadRequest {
		t.Errorf("hostile snapshot id -> %d, want 400", code)
	}
	if lx.rep.AckedSeq() != 0 {
		t.Fatalf("rejected queries moved the ack to %d", lx.rep.AckedSeq())
	}
}

func TestFollowerEpochFencing(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"))
	f, fStore, _ := newTestFollower(t, lx.srv.URL)
	ctx := context.Background()
	if err := f.resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if err := f.poll(ctx); err != nil { // caught up: the follower is present
		t.Fatalf("poll: %v", err)
	}
	if err := lx.store.Append(submitRec("j2")); err != nil {
		t.Fatal(err)
	}
	waited := make(chan bool)
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	go func() { waited <- lx.rep.WaitApplied(wctx, 2) }()

	// A poll from a higher epoch fences the leader and releases the
	// waiter at once.
	if code, body := lx.get(t, cursorQuery(f, 1)); code != http.StatusConflict {
		t.Fatalf("higher-epoch poll -> %d %s, want 409", code, body)
	}
	if ok := <-waited; ok || wctx.Err() != nil {
		t.Fatalf("WaitApplied = %v (ctx %v), want a fast false", ok, wctx.Err())
	}
	if lx.stats.State.Load() != StateRejected {
		t.Fatalf("leader state = %s, want rejected", StateName(lx.stats.State.Load()))
	}
	// A fenced leader answers every poll with 409, and serves nothing.
	if code, _ := lx.get(t, cursorQuery(f, 0)); code != http.StatusConflict {
		t.Fatalf("poll to a fenced leader -> %d, want 409", code)
	}
	if err := f.poll(ctx); err == nil {
		t.Fatal("follower applied a fenced leader's log")
	}

	// Promote: epoch bumps to 1, durably, once.
	epoch, err := f.MarkPromoted()
	if err != nil || epoch != 1 {
		t.Fatalf("MarkPromoted = (%d, %v), want (1, nil)", epoch, err)
	}
	if e2, err := f.MarkPromoted(); err != nil || e2 != 1 {
		t.Fatalf("second MarkPromoted = (%d, %v), want (1, nil)", e2, err)
	}
	if e, _ := LoadEpoch(f.cfg.Store.Dir()); e != 1 {
		t.Fatalf("persisted epoch = %d, want 1", e)
	}
	if recs := replay(t, fStore); len(recs) != 1 {
		t.Fatalf("follower journal has %d records past the fence, want 1", len(recs))
	}
}

func TestLeaderFencedByPromotedFollower(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"))
	f, fStore, _ := newTestFollower(t, lx.srv.URL)
	ctx := context.Background()
	if err := f.resync(ctx); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if _, err := f.MarkPromoted(); err != nil {
		t.Fatal(err)
	}
	if err := lx.store.Append(submitRec("j2")); err != nil {
		t.Fatal(err)
	}
	// A promoted follower applies nothing more.
	if err := f.poll(ctx); err == nil {
		t.Fatal("promoted follower applied a poll")
	}
	// Run on a promoted follower only posts the fence, until answered.
	fctx, fcancel := context.WithTimeout(ctx, 5*time.Second)
	defer fcancel()
	f.Run(fctx)
	if fctx.Err() != nil {
		t.Fatal("fence post never answered")
	}
	if lx.stats.State.Load() != StateRejected {
		t.Fatalf("leader state = %s, want rejected", StateName(lx.stats.State.Load()))
	}
	// Semisync waiters are released with failure, not hung.
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if lx.rep.WaitApplied(wctx, 2) {
		t.Fatal("WaitApplied succeeded against a fenced replicator")
	}
	if wctx.Err() != nil {
		t.Fatal("WaitApplied hung until the deadline instead of failing fast")
	}
	if recs := replay(t, fStore); len(recs) != 1 {
		t.Fatalf("fenced leader still replicated: follower has %d records, want 1", len(recs))
	}
	// A fence post that does not supersede the leader's epoch is
	// refused.
	resp, err := http.Post(lx.srv.URL+"/v1/repl/fence?epoch=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("fence post at the leader's own epoch -> %d, want 409", resp.StatusCode)
	}
}

// TestLeaderFollowerEndToEnd runs a real leader replicator against a
// real follower: resync of pre-existing history, then tail polling, a
// live checkpoint, and a semisync WaitApplied.
func TestLeaderFollowerEndToEnd(t *testing.T) {
	var pre []store.Record
	for i := 1; i <= 5; i++ {
		pre = append(pre, submitRec(fmt.Sprintf("pre%d", i)))
	}
	lx := newLeaderFixture(t, pre...)
	if err := lx.store.WriteSnapshot("pre1", []byte("ckpt-bytes")); err != nil {
		t.Fatal(err)
	}
	f, fStore, _ := newTestFollower(t, lx.srv.URL)
	runFollower(t, f)
	waitFor(t, "resync", func() bool { return lx.rep.AckedSeq() >= 5 })

	// Tail records and a live checkpoint arrive without another
	// resync.
	for i := 1; i <= 3; i++ {
		if err := lx.store.Append(submitRec(fmt.Sprintf("tail%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lx.store.WriteSnapshot("tail1", []byte("live-ckpt")); err != nil {
		t.Fatal(err)
	}
	lx.rep.MarkDirty("tail1")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !lx.rep.WaitApplied(ctx, 8) {
		t.Fatalf("WaitApplied(8) timed out; acked=%d", lx.rep.AckedSeq())
	}

	recs := replay(t, fStore)
	if len(recs) != 8 || recs[0].JobID != "pre1" || recs[7].JobID != "tail3" {
		t.Fatalf("follower journal = %d records (%v)", len(recs), jobIDs(recs))
	}
	snaps, err := fStore.LoadSnapshots("pre1")
	if err != nil || len(snaps) == 0 || string(snaps[0]) != "ckpt-bytes" {
		t.Fatalf("follower snapshot = (%v, %v), want ckpt-bytes", snaps, err)
	}
	waitFor(t, "live checkpoint", func() bool {
		snaps, _ := fStore.LoadSnapshots("tail1")
		return len(snaps) > 0 && string(snaps[0]) == "live-ckpt"
	})
	if got := lx.stats.Resyncs.Load(); got != 1 {
		t.Errorf("leader resyncs = %d, want 1", got)
	}
	if st := lx.rep.Status().State; st != "streaming" {
		t.Errorf("leader state = %s, want streaming", st)
	}
	waitFor(t, "follower heartbeat", func() bool { return f.Status().SecondsSinceHeartbeat >= 0 })
}

// TestAppendsBeforeFirstPollArriveByOneResync: a leader nobody polls
// keeps nothing per append; a follower that arrives later gets the
// whole journal — longer than one log response, so several reads of
// the one segment — from one resync, then tails it.
func TestAppendsBeforeFirstPollArriveByOneResync(t *testing.T) {
	st := testStore(t, t.TempDir())
	stats := &Stats{}
	rep := NewReplicator(LeaderConfig{Store: st, Stats: stats, SemisyncTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond})
	defer rep.Close()
	var resyncReads atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/log" && !r.URL.Query().Has("seq") {
			resyncReads.Add(1)
		}
		rep.ServeHTTP(w, r)
	}))
	defer srv.Close()
	pad := json.RawMessage(`{"pad":"` + strings.Repeat("x", 4000) + `"}`)
	appendN := func(from, to int) {
		t.Helper()
		for i := from; i <= to; i++ {
			if err := st.Append(store.Record{Type: store.RecSubmit, JobID: "j" + strconv.Itoa(i), Request: pad}); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(1, 400)
	if _, end, _ := st.Position(); end < 3*maxLogBytes/2 {
		t.Fatalf("journal is %d bytes, want more than one log response (%d)", end, maxLogBytes)
	}

	f, fStore, _ := newTestFollower(t, srv.URL)
	runFollower(t, f)
	waitFor(t, "resync of 400 appends", func() bool { return rep.AckedSeq() >= 400 })
	if n := resyncReads.Load(); n < 2 {
		t.Fatalf("resync took %d log reads, want several", n)
	}
	appendN(401, 410)
	waitFor(t, "tail after the resync", func() bool { return rep.AckedSeq() >= 410 })
	recs := replay(t, fStore)
	if len(recs) != 410 {
		t.Fatalf("follower journal = %d records, want 410", len(recs))
	}
	for i, r := range recs {
		if r.JobID != "j"+strconv.Itoa(i+1) {
			t.Fatalf("follower record %d is %s", i, r.JobID)
		}
	}
	if got := stats.Resyncs.Load(); got != 1 {
		t.Fatalf("leader resyncs = %d, want 1", got)
	}
}

// TestCompactedSessionSegmentAnswers409: the replicator pins its
// session's segment, so once a compaction has replaced it a tail poll
// and every resync read answer 409 instead of serving the new segment
// under the old session's cursor.
func TestCompactedSessionSegmentAnswers409(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"), submitRec("j2"))
	f, _, _ := newTestFollower(t, lx.srv.URL)
	if err := f.resync(context.Background()); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if code, body := lx.get(t, cursorQuery(f, 0)); code != http.StatusOK {
		t.Fatalf("poll before compaction -> %d %s", code, body)
	}
	if err := lx.store.Compact([]store.Record{submitRec("j2")}); err != nil {
		t.Fatal(err)
	}
	if code, body := lx.get(t, cursorQuery(f, 0)); code != http.StatusConflict {
		t.Fatalf("poll after compaction -> %d %s, want 409", code, body)
	}
	if err := f.resync(context.Background()); !errors.Is(err, errResync) {
		t.Fatalf("resync after compaction = %v, want a 409 from its first read", err)
	}
}

// TestWatchdogPromotesWhenLeaderGoesSilent: with PromoteAfter set, a
// synced follower whose leader stops answering promotes itself; one
// that never synced stays a standby.
func TestWatchdogPromotesWhenLeaderGoesSilent(t *testing.T) {
	lx := newLeaderFixture(t, submitRec("j1"))
	newWatched := func(url string) (*Follower, *atomic.Int32) {
		f, _, _ := newTestFollower(t, url)
		var promotes atomic.Int32
		f.cfg.PromoteAfter = 100 * time.Millisecond
		f.cfg.OnPromote = func(string) {
			promotes.Add(1)
			if _, err := f.MarkPromoted(); err != nil {
				t.Error(err)
			}
		}
		runFollower(t, f)
		return f, &promotes
	}
	f, promoted := newWatched(lx.srv.URL)
	waitFor(t, "sync", f.Synced)
	never, neverPromoted := newWatched("http://127.0.0.1:1")

	lx.rep.Close()
	lx.srv.Close()
	waitFor(t, "watchdog promote", func() bool { return f.Status().Role == "leader" })
	time.Sleep(300 * time.Millisecond)
	if n := promoted.Load(); n != 1 {
		t.Fatalf("OnPromote ran %d times, want 1", n)
	}
	if n := neverPromoted.Load(); n != 0 || never.Synced() {
		t.Fatalf("a follower that never synced promoted %d times", n)
	}
}

// startFollower runs f until the returned stop is called (or the test
// ends); stop waits for Run to return.
func startFollower(t *testing.T, f *Follower) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

// waitApplied runs WaitApplied with a deadline of d and reports its
// answer and how long it took.
func waitApplied(rep *Replicator, seq uint64, d time.Duration) (bool, time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	t0 := time.Now()
	ok := rep.WaitApplied(ctx, seq)
	return ok, time.Since(t0)
}

// TestBreakerOpensAfterThreshold: semisync stops paying the wait once
// the follower is gone. A leader nobody has polled never waits; with a
// caught-up follower every wait is honoured; after the follower stops,
// the first wait runs out its deadline and every later one returns
// false at once — the threshold is one semisync timeout of silence.
func TestBreakerOpensAfterThreshold(t *testing.T) {
	const timeout = 200 * time.Millisecond
	st := testStore(t, t.TempDir())
	rep := NewReplicator(LeaderConfig{Store: st, Stats: &Stats{}, SemisyncTimeout: timeout, HeartbeatEvery: 20 * time.Millisecond})
	srv := httptest.NewServer(rep)
	t.Cleanup(func() {
		rep.Close()
		srv.Close()
	})
	appendOne := func(id string) uint64 {
		t.Helper()
		if err := st.Append(submitRec(id)); err != nil {
			t.Fatal(err)
		}
		return st.Seq()
	}

	if ok, took := waitApplied(rep, appendOne("j1"), time.Second); ok || took > timeout/10 {
		t.Fatalf("never-polled leader: WaitApplied = %v after %v, want false at once", ok, took)
	}

	f, _, _ := newTestFollower(t, srv.URL)
	stop := startFollower(t, f)
	waitFor(t, "follower caught up", func() bool { return rep.AckedSeq() >= 1 })
	for i := 2; i <= 4; i++ {
		seq := appendOne("j" + strconv.Itoa(i))
		if ok, took := waitApplied(rep, seq, 5*time.Second); !ok {
			t.Fatalf("caught-up follower: WaitApplied(%d) = false after %v", seq, took)
		}
	}

	stop()
	if ok, took := waitApplied(rep, appendOne("j5"), timeout); ok || took < timeout*9/10 {
		t.Fatalf("first wait after the follower stopped: %v after %v, want false after ~%v", ok, took, timeout)
	}
	for i := 6; i <= 8; i++ {
		if ok, took := waitApplied(rep, appendOne("j"+strconv.Itoa(i)), timeout); ok || took > timeout/10 {
			t.Fatalf("wait %d with the follower gone: %v after %v, want false at once", i, ok, took)
		}
	}
}

// TestBreakerHalfOpenProbe: waits resume as soon as the follower is
// back. While it is gone no wait is paid; the first poll of the
// returning follower — no cooldown, no probe — makes the next wait
// block until that follower acks, and a fresh leader-side silence
// closes the gate again.
func TestBreakerHalfOpenProbe(t *testing.T) {
	const timeout = 200 * time.Millisecond
	st := testStore(t, t.TempDir())
	rep := NewReplicator(LeaderConfig{Store: st, Stats: &Stats{}, SemisyncTimeout: timeout, HeartbeatEvery: 20 * time.Millisecond})
	srv := httptest.NewServer(rep)
	t.Cleanup(func() {
		rep.Close()
		srv.Close()
	})
	appendOne := func(id string) uint64 {
		t.Helper()
		if err := st.Append(submitRec(id)); err != nil {
			t.Fatal(err)
		}
		return st.Seq()
	}

	first := appendOne("j1")
	f, fStore, _ := newTestFollower(t, srv.URL)
	stop := startFollower(t, f)
	waitFor(t, "follower caught up", func() bool { return rep.AckedSeq() >= first })
	stop()
	waitApplied(rep, appendOne("j2"), timeout) // runs out: the follower is gone
	if ok, took := waitApplied(rep, appendOne("j3"), timeout); ok || took > timeout/10 {
		t.Fatalf("follower gone: WaitApplied = %v after %v, want false at once", ok, took)
	}

	// The same follower comes back and tails on from its cursor.
	stop = startFollower(t, f)
	waitFor(t, "returning follower caught up", func() bool { return rep.AckedSeq() >= 3 })
	seq := appendOne("j4")
	if ok, took := waitApplied(rep, seq, 5*time.Second); !ok {
		t.Fatalf("follower back: WaitApplied(%d) = false after %v", seq, took)
	}
	if recs := replay(t, fStore); len(recs) != 4 || recs[3].JobID != "j4" {
		t.Fatalf("follower journal = %d records (%v), want j1..j4", len(recs), jobIDs(recs))
	}

	// Gone again: the gate closes after one more timeout of silence.
	stop()
	waitApplied(rep, appendOne("j5"), timeout)
	if ok, took := waitApplied(rep, appendOne("j6"), timeout); ok || took > timeout/10 {
		t.Fatalf("follower gone again: WaitApplied = %v after %v, want false at once", ok, took)
	}
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestResyncAdoptsLeaderHold: the resync listing carries the leader's
// poll hold, so the first tail poll after a resync already has a
// deadline that covers a hold longer than the transfer allowance.
// Without it the poll would time out client-side on every round and
// the leader would look silent to the watchdog.
func TestResyncAdoptsLeaderHold(t *testing.T) {
	const hold = 2 * transferAllowance
	st := testStore(t, t.TempDir())
	rep := NewReplicator(LeaderConfig{Store: st, Stats: &Stats{}, SemisyncTimeout: 2 * time.Second, HeartbeatEvery: hold})
	defer rep.Close()
	srv := httptest.NewServer(rep)
	defer srv.Close()
	f, _, _ := newTestFollower(t, srv.URL)
	if err := f.resync(context.Background()); err != nil {
		t.Fatalf("resync: %v", err)
	}
	f.mu.Lock()
	got := f.hold
	f.mu.Unlock()
	if got != hold {
		t.Fatalf("hold after resync = %v, want the leader's %v", got, hold)
	}
}

// TestFailedLeaderFsyncKeepsFollowerInOrder: an append whose fsync
// fails is rolled back out of the leader's segment, so the tailing
// follower never sees it and the appends after it arrive in order
// with no resync.
func TestFailedLeaderFsyncKeepsFollowerInOrder(t *testing.T) {
	inj := fault.New(1)
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := &Stats{}
	rep := NewReplicator(LeaderConfig{Store: st, Stats: stats, SemisyncTimeout: 2 * time.Second, HeartbeatEvery: 20 * time.Millisecond})
	defer rep.Close()
	srv := httptest.NewServer(rep)
	defer srv.Close()
	for _, id := range []string{"a", "b"} {
		if err := st.Append(submitRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	f, fStore, _ := newTestFollower(t, srv.URL)
	runFollower(t, f)
	waitFor(t, "resync", func() bool { return rep.AckedSeq() >= 2 })

	inj.Arm(fault.StoreSync, fault.Rule{ErrRate: 1, MaxFaults: 1})
	if err := st.Append(submitRec("lost")); err == nil {
		t.Fatal("armed store.fsync did not fail the append")
	}
	for _, id := range []string{"c", "d"} {
		if err := st.Append(submitRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "appends after the failed one", func() bool { return rep.AckedSeq() >= 4 })
	recs := replay(t, fStore)
	if got := fmt.Sprint(jobIDs(recs)); got != "[a b c d]" {
		t.Fatalf("follower journal = %s, want [a b c d]", got)
	}
	if got := stats.Resyncs.Load(); got != 1 {
		t.Fatalf("leader resyncs = %d, want 1", got)
	}
}

// TestLeaderStateFollowsPolls: the leader's reported state and lag
// come from its polls: idle before any, streaming while a follower
// tails, disconnected once none has been held or admitted for the
// semisync timeout, with the lag counting appends since the last ack.
func TestLeaderStateFollowsPolls(t *testing.T) {
	const timeout = 200 * time.Millisecond
	st := testStore(t, t.TempDir())
	stats := &Stats{}
	rep := NewReplicator(LeaderConfig{Store: st, Stats: stats, SemisyncTimeout: timeout, HeartbeatEvery: 20 * time.Millisecond})
	defer rep.Close()
	srv := httptest.NewServer(rep)
	defer srv.Close()
	if err := st.Append(submitRec("j1")); err != nil {
		t.Fatal(err)
	}
	if v := rep.Status(); v.State != "idle" || v.LagRecords != 0 {
		t.Fatalf("before any poll: state %s lag %d, want idle 0", v.State, v.LagRecords)
	}
	f, _, _ := newTestFollower(t, srv.URL)
	stop := startFollower(t, f)
	waitFor(t, "streaming", func() bool { v := rep.Status(); return v.State == "streaming" && v.LagRecords == 0 })
	stop()
	for _, id := range []string{"j2", "j3"} {
		if err := st.Append(submitRec(id)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "disconnected", func() bool { return rep.Status().State == "disconnected" })
	if v := rep.Status(); v.LagRecords != 2 || stats.State.Load() != StateDisconnected || stats.LagRecords.Load() != 2 {
		t.Fatalf("follower gone: lag %d, gauges state %d lag %d; want lag 2 in both, state %d",
			v.LagRecords, stats.State.Load(), stats.LagRecords.Load(), StateDisconnected)
	}
}
