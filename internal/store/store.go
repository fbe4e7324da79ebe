// Package store is cosparsed's durability layer: an append-only,
// CRC-framed job journal plus binary checkpoint snapshots, both living
// under a single data directory. The journal records every job and
// graph lifecycle transition (submit/start/finish, graph
// register/delete) so that a crashed or killed daemon can rebuild its
// queue on restart; snapshots hold mid-run algorithm state written
// through the runtime checkpoint seam so interrupted jobs resume from
// their last committed iteration instead of from scratch.
//
// The segment files are the journal's only copy: nothing keeps the
// records in memory. Open validates and counts them, Replay reads them
// back, and a replication leader serves them verbatim. Appends go to a
// single segment until Compact rewrites the live records into a fresh
// one, which happens at recovery (Open, promotion) and at a follower's
// resync commit; nothing rotates a segment while the daemon runs.
//
// Crash-consistency contract:
//
//   - A journal record is durable once Append returns: the frame
//     (length + CRC32 + payload) is written and fsynced before the
//     call completes. A crash mid-Append leaves a torn tail that the
//     next Open detects by CRC and truncates — the journal never
//     replays a partially written record.
//   - Snapshots are atomic via write-to-temp + rename, with the
//     previous snapshot retained as a fallback so a crash during
//     snapshot replacement still leaves one valid checkpoint.
//   - All durability I/O passes through the fault-injection points
//     (store.journal_append, store.fsync, store.snapshot_write,
//     store.recover_replay) so chaos tests can exercise every failure
//     window deterministically.
package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cosparse/internal/fault"
)

const (
	// segMagic opens every journal segment file ("CSJ1").
	segMagic uint32 = 0x43534a31
	// segVersion is the journal format version; Open rejects segments
	// written by a different version instead of guessing.
	segVersion uint16 = 1
	// segHeaderLen is magic(4) + version(2) + reserved(2).
	segHeaderLen = 8
	// frameHeaderLen is length(4) + crc32(4) per record.
	frameHeaderLen = 8
	// maxRecordLen bounds a single journal record; anything larger is
	// corruption, not data (records are small JSON documents).
	maxRecordLen = 16 << 20
)

// RecordType names a journal transition.
type RecordType string

const (
	// RecGraph journals a graph registration (ID + the JSON spec that
	// deterministically rebuilds it).
	RecGraph RecordType = "graph"
	// RecGraphDelete journals a graph deletion.
	RecGraphDelete RecordType = "graph_delete"
	// RecSubmit journals a job entering the queue, with the request
	// body needed to re-run it.
	RecSubmit RecordType = "submit"
	// RecStart journals a worker picking the job up.
	RecStart RecordType = "start"
	// RecRetry journaled a job re-run in builds that retried failed
	// jobs. Nothing writes it now; replay still accepts it so older
	// data dirs recover.
	RecRetry RecordType = "retry"
	// RecFinish journals a terminal transition (done/failed/cancelled).
	RecFinish RecordType = "finish"
)

// Record is one journal entry. Fields are populated per type; unused
// fields are omitted from the encoded form.
type Record struct {
	Type RecordType `json:"type"`
	// TimeUnixNs stamps the transition (wall clock, informational).
	TimeUnixNs int64 `json:"time_unix_ns,omitempty"`

	GraphID   string          `json:"graph_id,omitempty"`
	GraphSpec json.RawMessage `json:"graph_spec,omitempty"`

	JobID   string          `json:"job_id,omitempty"`
	Request json.RawMessage `json:"request,omitempty"`
	// TimeoutMS preserves the job's effective timeout so a recovered
	// job keeps its original budget class.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// State is the terminal state for RecFinish ("done", "failed",
	// "cancelled").
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
}

// Options tunes a Store. The zero value is usable.
type Options struct {
	// NoSync skips fsync (tests only; production keeps the durability
	// contract).
	NoSync bool
	// Faults, when non-nil, is consulted at every durability I/O
	// boundary. Nil is fully disarmed.
	Faults *fault.Injector
	// OnAppend observes the number of journal bytes committed per
	// Append (metrics hook). May be nil.
	OnAppend func(n int)
	// Logf receives recovery diagnostics (torn-tail truncation,
	// compaction). May be nil.
	Logf func(format string, args ...any)
}

// ReplayStats summarizes what Open found in the journal.
type ReplayStats struct {
	// Segments is the number of journal segment files scanned.
	Segments int
	// Records is the number of valid records replayed.
	Records int
	// TornBytes counts bytes discarded from a torn or corrupt tail of
	// the final segment.
	TornBytes int64
	// Truncated reports whether a torn tail was discarded.
	Truncated bool
}

// Store is the journal + snapshot handle for one data directory. All
// methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu  sync.Mutex
	seg *os.File
	// The journal is the segments first..segIdx that exist, oldest
	// first; segIdx is the append target, committed up to segBytes.
	// Open finds more than one segment only after a crash between
	// Compact's write and its deletes.
	first, segIdx int
	segBytes      int64
	closed        bool
	// broken is set when a failed append could not be rolled back; the
	// segment then holds bytes past segBytes, so every later append
	// returns it.
	broken error

	// seq is the sequence number of the last record in the journal:
	// replayed records take 1..n at Open, every append increments it.
	// Compaction rewrites bytes but assigns no new numbers, so seq is
	// a stable cursor for replication.
	seq    uint64
	replay ReplayStats
	// wake is closed by the next commit (see Watch); nil until someone
	// watches, so an unwatched store allocates nothing per append.
	wake chan struct{}
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("store: closed")

// ErrSegmentGone is returned by ReadFrom for a segment that is no
// longer the append target — compaction replaced it, and deleted it or
// is about to. Compaction assumes it is the only long-lived reader of
// segment files; any other reader (a replication follower's cursor)
// must treat this error as a lost cursor and start again from
// Position.
var ErrSegmentGone = errors.New("store: segment removed by compaction")

// ErrBadOffset is returned by ReadFrom for a position no segment ever
// had: a segment index past the active one, an offset inside the
// header or beyond the committed bytes, or one not on a frame boundary.
var ErrBadOffset = errors.New("store: read position out of range")

func (s *Store) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

func segName(idx int) string { return fmt.Sprintf("journal-%08d.wal", idx) }

// segIndex parses the index out of a segment file name, returning -1
// for names that are not journal segments.
func segIndex(name string) int {
	var idx int
	if n, err := fmt.Sscanf(name, "journal-%08d.wal", &idx); err != nil || n != 1 {
		return -1
	}
	if segName(idx) != name {
		return -1
	}
	return idx
}

// segIndexes lists the indexes of the journal segments in dir,
// ascending.
func segIndexes(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: scan data dir: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		if idx := segIndex(e.Name()); idx >= 0 && !e.IsDir() {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return idxs, nil
}

// Open opens (creating if needed) the durability store rooted at dir,
// validating and counting the records of every journal segment. A torn
// or corrupt tail on the final segment is truncated; corruption
// anywhere else is an error (it means a committed record was lost,
// which recovery must not paper over).
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create data dir: %w", err)
	}
	s := &Store{dir: dir, opt: opt}
	segs, err := segIndexes(dir)
	if err != nil {
		return nil, err
	}
	for i, idx := range segs {
		n, removed, err := s.replaySegment(idx, i == len(segs)-1)
		if err != nil {
			return nil, err
		}
		if removed {
			// A torn segment creation (crash before the header hit disk)
			// was deleted; the previous segment is the append target.
			segs = segs[:i]
		}
		s.seq += uint64(n)
	}
	s.replay.Segments = len(segs)
	s.replay.Records = int(s.seq)

	if len(segs) == 0 {
		if err := s.openSegment(1); err != nil {
			return nil, err
		}
		s.first = 1
	} else {
		last := segs[len(segs)-1]
		f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: stat segment: %w", err)
		}
		s.seg, s.first, s.segIdx, s.segBytes = f, segs[0], last, st.Size()
	}
	return s, nil
}

// replaySegment validates one segment and returns its record count.
// When last is set, a torn or corrupt frame tail truncates the file to
// its last valid record, and a torn segment creation (file shorter
// than the header a crash-free openSegment always leaves) removes the
// file entirely and reports removed. Corruption anywhere else —
// including a full header with the wrong magic or version — is a hard
// error: that is a foreign or future-format file, not a crash artifact,
// and recovery must not destroy it.
func (s *Store) replaySegment(idx int, last bool) (n int, removed bool, err error) {
	path := filepath.Join(s.dir, segName(idx))
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, fmt.Errorf("store: read segment: %w", err)
	}
	recs, good, verr := scanSegment(data)
	for range recs {
		if s.opt.Faults != nil {
			if err := s.opt.Faults.Check(fault.RecoverReplay); err != nil {
				return 0, false, fmt.Errorf("store: replay %s: %w", segName(idx), err)
			}
		}
	}
	if verr != nil {
		headerBad := good < segHeaderLen
		switch {
		case !last, headerBad && int64(len(data)) >= segHeaderLen:
			return 0, false, fmt.Errorf("store: segment %s: %w", segName(idx), verr)
		case headerBad:
			s.logf("store: removing torn segment %s: %d bytes (%v)", segName(idx), len(data), verr)
			if err := os.Remove(path); err != nil {
				return 0, false, fmt.Errorf("store: remove torn segment: %w", err)
			}
			s.replay.TornBytes += int64(len(data))
			s.replay.Truncated = true
			return 0, true, nil
		default:
			torn := int64(len(data)) - good
			s.logf("store: truncating torn tail of %s: %d bytes (%v)", segName(idx), torn, verr)
			if err := os.Truncate(path, good); err != nil {
				return 0, false, fmt.Errorf("store: truncate torn tail: %w", err)
			}
			s.replay.TornBytes += torn
			s.replay.Truncated = true
		}
	}
	return len(recs), false, nil
}

// scanSegment decodes all records in a segment image. It returns the
// valid records, the byte offset up to which the segment is valid, and
// the error that stopped the scan (nil when the whole segment parsed).
// It never panics on arbitrary input (FuzzScanSegment).
func scanSegment(data []byte) (recs []Record, good int64, err error) {
	if len(data) < segHeaderLen {
		return nil, 0, fmt.Errorf("short segment header (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != segMagic {
		return nil, 0, fmt.Errorf("bad segment magic %#08x", m)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != segVersion {
		return nil, 0, fmt.Errorf("unsupported journal version %d (want %d)", v, segVersion)
	}
	return scanFrames(data, segHeaderLen)
}

// DecodeFrames decodes a run of frames as ReadFrom returns them,
// strictly: a torn frame, a checksum mismatch or an undecodable
// payload anywhere fails the whole run with no records. It never
// panics on arbitrary input.
func DecodeFrames(data []byte) ([]Record, error) {
	recs, _, err := scanFrames(data, 0)
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// scanFrames decodes the frames in data from offset off, like
// scanSegment past the header.
func scanFrames(data []byte, off int64) (recs []Record, good int64, err error) {
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameHeaderLen {
			return recs, off, fmt.Errorf("torn frame header at offset %d", off)
		}
		n, err := frameLen(rest, off)
		if err != nil {
			return recs, off, err
		}
		if int64(len(rest)) < n {
			return recs, off, fmt.Errorf("torn record at offset %d", off)
		}
		payload := rest[frameHeaderLen:n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4:8]) {
			return recs, off, fmt.Errorf("record CRC mismatch at offset %d", off)
		}
		var r Record
		if jerr := json.Unmarshal(payload, &r); jerr != nil {
			return recs, off, fmt.Errorf("record decode at offset %d: %w", off, jerr)
		}
		recs = append(recs, r)
		off += n
	}
	return recs, off, nil
}

// frameLen checks the header that opens data (at least frameHeaderLen
// bytes, found at offset off) and returns the frame's full length,
// header included.
func frameLen(data []byte, off int64) (int64, error) {
	length := binary.LittleEndian.Uint32(data[0:4])
	if length == 0 || length > maxRecordLen {
		return 0, fmt.Errorf("implausible record length %d at offset %d", length, off)
	}
	return frameHeaderLen + int64(length), nil
}

// openSegment creates a fresh segment with a header and makes it the
// active append target. Caller holds s.mu (or is still in Open).
func (s *Store) openSegment(idx int) error {
	path := filepath.Join(s.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	hdr := make([]byte, segHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := s.sync(f); err != nil {
		f.Close()
		return err
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		return err
	}
	if s.seg != nil {
		s.seg.Close()
	}
	s.seg, s.segIdx, s.segBytes = f, idx, segHeaderLen
	return nil
}

// sync commits a file, respecting NoSync and the fsync fault point.
func (s *Store) sync(f *os.File) error {
	if s.opt.Faults != nil {
		if err := s.opt.Faults.Check(fault.StoreSync); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
	}
	if s.opt.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	return nil
}

// syncDir fsyncs the data directory so renames and creates are durable.
func (s *Store) syncDir() error {
	if s.opt.NoSync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}

// EncodeFrame encodes a record as one journal frame (length + CRC32 +
// JSON payload), the bytes Append writes and ReadFrom returns.
func EncodeFrame(r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("store: encode record: %w", err)
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeaderLen:], payload)
	return frame, nil
}

// Append journals one record. On return the record is durable (framed,
// written, fsynced); any error means the record must be treated as not
// written.
func (s *Store) Append(r Record) error {
	_, err := s.AppendSeq(r)
	return err
}

// AppendSeq is Append returning the record's journal sequence number —
// the cursor a semisync submitter waits on for the follower's ack.
func (s *Store) AppendSeq(r Record) (uint64, error) { return s.append(r) }

// AppendBatch journals several records with a single fsync — the
// follower-side apply path, where a replicated batch must become
// durable as a unit without paying one sync per record. Either every
// record is committed or (on error) none may be trusted.
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	_, err := s.append(recs...)
	return err
}

// append journals recs with one write and one fsync and returns the
// sequence number of the last.
func (s *Store) append(recs ...Record) (uint64, error) {
	var buf []byte
	for _, r := range recs {
		f, err := EncodeFrame(r)
		if err != nil {
			return 0, err
		}
		buf = append(buf, f...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLocked(buf); err != nil {
		return 0, err
	}
	s.commitLocked(len(recs), len(buf))
	return s.seq, nil
}

// writeLocked writes and fsyncs frames at the end of the active
// segment. When the write or the fsync fails, the segment is cut back
// to its committed size, so the failed bytes are neither read by a
// replication follower nor left in front of the next append; if the
// cut fails too, the store is broken and refuses every later append.
// Caller holds s.mu.
func (s *Store) writeLocked(frames []byte) error {
	switch {
	case s.closed:
		return ErrClosed
	case s.broken != nil:
		return s.broken
	}
	if s.opt.Faults != nil {
		if err := s.opt.Faults.Check(fault.JournalAppend); err != nil {
			return fmt.Errorf("store: journal append: %w", err)
		}
	}
	_, err := s.seg.Write(frames)
	if err != nil {
		err = fmt.Errorf("store: journal write: %w", err)
	} else {
		err = s.sync(s.seg)
	}
	if err != nil {
		// Every segment is opened O_APPEND, so after the cut the next
		// write lands at the committed end.
		if terr := s.seg.Truncate(s.segBytes); terr != nil {
			s.broken = fmt.Errorf("store: journal unusable: rolling back a failed append (%v): %w", err, terr)
		}
	}
	return err
}

// commitLocked does the post-durability bookkeeping for recs records
// whose n bytes of frames are written and synced: sequence number,
// byte accounting, the OnAppend hook and Watch channels. Caller holds
// s.mu.
func (s *Store) commitLocked(recs, n int) {
	s.segBytes += int64(n)
	s.seq += uint64(recs)
	if s.opt.OnAppend != nil {
		s.opt.OnAppend(n)
	}
	s.wakeLocked()
}

// wakeLocked releases every Watch channel handed out so far. Caller
// holds s.mu.
func (s *Store) wakeLocked() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// Watch returns the journal's sequence number together with a channel
// that is closed by the next commit, or by Close. A reader that calls
// Watch before reading can wait on the channel without missing an
// append — the replication leader's long poll does exactly this.
func (s *Store) Watch() (uint64, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return s.seq, s.wake
}

// Replay returns every record currently in the journal (those found
// at Open plus everything appended since, in journal order), read back
// from the segment files up to the committed bytes. Appends wait while
// it reads.
func (s *Store) Replay() ([]Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	segs, err := segIndexes(s.dir)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for _, idx := range segs {
		if idx < s.first || idx > s.segIdx {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.dir, segName(idx)))
		if err != nil {
			return nil, fmt.Errorf("store: read segment: %w", err)
		}
		if idx == s.segIdx {
			data = data[:min(int64(len(data)), s.segBytes)]
		}
		r, _, err := scanSegment(data)
		if err != nil {
			return nil, fmt.Errorf("store: replay %s: %w", segName(idx), err)
		}
		recs = append(recs, r...)
	}
	return recs, nil
}

// OpenStats returns what Open found in the journal.
func (s *Store) OpenStats() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// Seq returns the sequence number of the last record in the journal
// (0 when empty).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Compact rewrites the journal to exactly the live records, dropping
// all history for settled jobs, then deletes the superseded segments.
// Appends continue into the freshly written segment.
//
// Compact is the only thing that starts a new segment. It is
// destructive to concurrent segment readers: every pre-compaction
// segment is deleted, so a replication cursor held across a Compact is
// invalidated (ReadFrom reports ErrSegmentGone) and the reader must
// full-resync. No new sequence numbers are assigned — the journal's
// seq cursor survives compaction unchanged.
func (s *Store) Compact(live []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	old := s.segIdx
	if err := s.openSegment(old + 1); err != nil {
		return err
	}
	for _, r := range live {
		frame, err := EncodeFrame(r)
		if err != nil {
			return err
		}
		if _, err := s.seg.Write(frame); err != nil {
			return fmt.Errorf("store: compaction write: %w", err)
		}
		s.segBytes += int64(len(frame))
	}
	if err := s.sync(s.seg); err != nil {
		return err
	}
	// The new segment is durable and alone holds the journal; old
	// segments are now dead weight.
	s.first = s.segIdx
	segs, err := segIndexes(s.dir)
	if err != nil {
		return err
	}
	removed := 0
	for _, idx := range segs {
		if idx <= old {
			if err := os.Remove(filepath.Join(s.dir, segName(idx))); err != nil {
				s.logf("store: compaction could not remove %s: %v", segName(idx), err)
				continue
			}
			removed++
		}
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.logf("store: compacted journal to %d live records, removed %d segments", len(live), removed)
	return nil
}

// Dir returns the data directory the store is rooted at.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes the active segment. Further operations fail
// with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.wakeLocked()
	if s.seg == nil {
		return nil
	}
	var firstErr error
	if !s.opt.NoSync {
		if err := s.seg.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.seg.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	s.seg = nil
	return firstErr
}

// Position returns the append target — its segment index and committed
// size — and the journal's sequence number, taken together: record seq
// ends at byte end of segment seg. A replication session pins seg, and
// a resync reads it up to end.
func (s *Store) Position() (seg int, end int64, seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.segIdx, s.segBytes, s.seq
}

// ReadFrom returns the whole frames of segment seg that start at file
// offset off (SegmentHeaderLen for a whole segment), at most limit
// bytes of them, with their count. A single frame larger than limit
// comes back whole, so every read makes progress. Only the append
// target is served, and only up to its committed size, which is taken
// under the store lock; the bytes are read outside it, so appends never
// wait on a reader, and bytes of an append in progress are never
// visible. An earlier segment returns ErrSegmentGone: compaction
// replaced it, so the reader's cursor is gone and it must start again
// from Position. A position no segment ever had returns ErrBadOffset,
// as does a frame header there that is implausible or a frame that runs
// past the committed bytes: the marks of a cursor off a frame boundary.
func (s *Store) ReadFrom(seg int, off int64, limit int) (frames []byte, n int, err error) {
	s.mu.Lock()
	active, end, closed := s.segIdx, s.segBytes, s.closed
	s.mu.Unlock()
	switch {
	case closed:
		return nil, 0, ErrClosed
	case seg < 1 || seg > active || off < SegmentHeaderLen:
		return nil, 0, fmt.Errorf("store: segment %d offset %d: %w", seg, off, ErrBadOffset)
	case seg < active:
		return nil, 0, fmt.Errorf("store: segment %d: %w", seg, ErrSegmentGone)
	case off > end:
		return nil, 0, fmt.Errorf("store: segment %d offset %d past %d committed bytes: %w", seg, off, end, ErrBadOffset)
	}
	f, err := os.Open(filepath.Join(s.dir, segName(seg)))
	if os.IsNotExist(err) {
		return nil, 0, fmt.Errorf("store: segment %d: %w", seg, ErrSegmentGone)
	} else if err != nil {
		return nil, 0, fmt.Errorf("store: read segment: %w", err)
	}
	defer f.Close()
	// Read up to the limit (never less than one frame header), then
	// keep the frames that fit whole.
	frames = make([]byte, min(end-off, int64(max(limit, frameHeaderLen))))
	if _, err := f.ReadAt(frames, off); err != nil {
		return nil, 0, fmt.Errorf("store: read segment: %w", err)
	}
	var used int64
	for used < int64(len(frames)) {
		pos := off + used
		if end-pos < frameHeaderLen {
			return nil, 0, fmt.Errorf("store: segment %d: torn frame header at offset %d: %w", seg, pos, ErrBadOffset)
		}
		if int64(len(frames))-used < frameHeaderLen {
			break // the limit cut this frame's header
		}
		fl, err := frameLen(frames[used:], pos)
		if err != nil {
			return nil, 0, fmt.Errorf("store: segment %d: %v: %w", seg, err, ErrBadOffset)
		}
		if pos+fl > end {
			return nil, 0, fmt.Errorf("store: segment %d: torn record at offset %d: %w", seg, pos, ErrBadOffset)
		}
		if used+fl > int64(len(frames)) {
			if n > 0 {
				break
			}
			frames = make([]byte, fl)
			if _, err := f.ReadAt(frames, off); err != nil {
				return nil, 0, fmt.Errorf("store: read segment: %w", err)
			}
			return frames, 1, nil
		}
		used += fl
		n++
	}
	return frames[:used], n, nil
}

// SegmentHeaderLen is the size of the magic/version header that opens
// every segment file; frames start at this offset.
const SegmentHeaderLen = segHeaderLen

var _ io.Closer = (*Store)(nil)
