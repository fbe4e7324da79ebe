package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosparse/internal/fault"
)

// whole is a ReadFrom limit no test segment reaches.
const whole = 1 << 30

// synthHeader builds a valid segment header so frames returned by
// ReadFrom can be decoded with scanSegment.
func synthHeader() []byte {
	hdr := make([]byte, segHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	return hdr
}

// writeSegment writes recs as segment idx of dir, the file a
// crash-free writer leaves.
func writeSegment(t *testing.T, dir string, idx int, recs ...Record) {
	t.Helper()
	data := synthHeader()
	for _, r := range recs {
		f, err := EncodeFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, f...)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(idx)), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustReplay(t *testing.T, s *Store) []Record {
	t.Helper()
	recs, err := s.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func jobIDs(recs []Record) string {
	ids := make([]string, len(recs))
	for i, r := range recs {
		ids[i] = r.JobID
	}
	return strings.Join(ids, " ")
}

func TestAppendSeqMonotonicAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	for i := 1; i <= 3; i++ {
		seq, err := s.AppendSeq(submitRec(fmt.Sprintf("j%d", i)))
		if err != nil {
			t.Fatalf("AppendSeq: %v", err)
		}
		if seq != uint64(i) {
			t.Fatalf("AppendSeq %d returned seq %d", i, seq)
		}
	}
	if got := s.Seq(); got != 3 {
		t.Fatalf("Seq() = %d, want 3", got)
	}
	s.Close()

	// The cursor resumes from the replayed record count: replayed
	// records occupy seqs 1..n, so the next append is n+1.
	s2 := testOpen(t, dir, Options{})
	if got := s2.Seq(); got != 3 {
		t.Fatalf("Seq() after reopen = %d, want 3", got)
	}
	seq, err := s2.AppendSeq(submitRec("j4"))
	if err != nil || seq != 4 {
		t.Fatalf("AppendSeq after reopen = (%d, %v), want (4, nil)", seq, err)
	}
}

func TestReadFromDeliversDecodableFrames(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	want := []Record{submitRec("j1"), {Type: RecStart, JobID: "j1"}, {Type: RecFinish, JobID: "j1", State: "done"}}
	var ends []int64
	for i, r := range want {
		seq, err := s.AppendSeq(r)
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("AppendSeq = (%d, %v), want (%d, nil)", seq, err, i+1)
		}
		_, end, _ := s.Position()
		ends = append(ends, end)
	}
	// Each record's frame, read back from the previous record's end
	// and stitched behind a segment header, decodes to exactly that
	// record — the contract a follower's cursor relies on.
	off := int64(SegmentHeaderLen)
	for i, end := range ends {
		frames, _, err := s.ReadFrom(1, off, whole)
		if err != nil {
			t.Fatalf("ReadFrom(1, %d): %v", off, err)
		}
		got, _, err := scanSegment(append(synthHeader(), frames[:end-off]...))
		if err != nil || len(got) != 1 {
			t.Fatalf("frame %d decodes to %d records (%v)", i, len(got), err)
		}
		if got[0].Type != want[i].Type || got[0].JobID != want[i].JobID {
			t.Errorf("frame %d = %+v, want %+v", i, got[0], want[i])
		}
		off = end
	}
}

// TestReadFromNeverTearsAFrame: a bounded read returns whole frames
// only — every chunk decodes on its own (the follower CRC-verifies
// response by response) to the count ReadFrom reports, a frame over
// the limit comes back alone, and a torn frame is refused.
func TestReadFromNeverTearsAFrame(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	const recs = 10
	for i := 0; i < recs; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	frame, _ := EncodeFrame(submitRec("j0"))
	fl := len(frame)
	for _, tc := range []struct{ limit, perChunk int }{
		{5*fl/2 + 1, 2}, // two whole frames fit, a third does not
		{1, 1},          // every frame is over the limit
	} {
		chunks, total := 0, 0
		for off := int64(SegmentHeaderLen); ; {
			frames, n, err := s.ReadFrom(1, off, tc.limit)
			if err != nil {
				t.Fatalf("limit %d: ReadFrom(1, %d): %v", tc.limit, off, err)
			}
			if n == 0 {
				break
			}
			got, err := DecodeFrames(frames)
			if err != nil || len(got) != n {
				t.Fatalf("limit %d: chunk %d decodes to %d records (%v), ReadFrom counted %d", tc.limit, chunks, len(got), err, n)
			}
			if n > 1 && len(frames) > tc.limit {
				t.Fatalf("limit %d: chunk of %d frames is %d bytes", tc.limit, n, len(frames))
			}
			if n != tc.perChunk && total+n != recs {
				t.Fatalf("limit %d: chunk %d holds %d frames, want %d", tc.limit, chunks, n, tc.perChunk)
			}
			chunks++
			total += n
			off += int64(len(frames))
		}
		if total != recs || chunks < 2 {
			t.Fatalf("limit %d: %d chunks decode to %d records, want %d over several", tc.limit, chunks, total, recs)
		}
	}

	// A cursor one byte into a frame is refused, not served.
	if _, _, err := s.ReadFrom(1, SegmentHeaderLen+1, whole); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("ReadFrom mid-frame = %v, want ErrBadOffset", err)
	}
	// So is a frame whose length runs past the committed bytes: the
	// last frame's header rewritten to claim one byte more.
	_, end, _ := s.Position()
	last := end - int64(fl)
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(fl-frameHeaderLen+1))
	if _, err := f.WriteAt(hdr[:], last); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReadFrom(1, last, whole); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("ReadFrom of a frame past the committed end = %v, want ErrBadOffset", err)
	}
}

func TestAppendBatchReplaysAndHooks(t *testing.T) {
	dir := t.TempDir()
	var bytes int
	s := testOpen(t, dir, Options{OnAppend: func(n int) { bytes += n }})
	seq0, wake := s.Watch()
	if seq0 != 0 {
		t.Fatalf("Watch seq on an empty journal = %d", seq0)
	}
	batch := []Record{submitRec("j1"), submitRec("j2"), submitRec("j3")}
	if err := s.AppendBatch(batch); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	select {
	case <-wake:
	default:
		t.Fatal("AppendBatch did not release a Watch channel")
	}
	if seq, _ := s.Watch(); seq != 3 {
		t.Fatalf("Watch seq after batch = %d, want 3", seq)
	}
	if _, end, _ := s.Position(); int64(bytes) != end-SegmentHeaderLen {
		t.Fatalf("OnAppend saw %d bytes, segment holds %d", bytes, end-SegmentHeaderLen)
	}
	if got := mustReplay(t, s); len(got) != 3 || got[1].JobID != "j2" {
		t.Fatalf("Replay after batch = %+v", got)
	}
	_, wake = s.Watch()
	s.Close()
	select {
	case <-wake:
	default:
		t.Fatal("Close did not release a Watch channel")
	}

	s2 := testOpen(t, dir, Options{})
	got := mustReplay(t, s2)
	if len(got) != 3 || got[0].JobID != "j1" || got[2].JobID != "j3" {
		t.Fatalf("replay after reopen = %+v", got)
	}
}

func TestReplayIncludesPostOpenAppends(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	if err := s.Append(submitRec("j1")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Replay after Open plus live appends must return the full journal
	// — the promoted follower's recovery folds over exactly this.
	s2 := testOpen(t, dir, Options{})
	if err := s2.Append(submitRec("j2")); err != nil {
		t.Fatal(err)
	}
	if err := s2.AppendBatch([]Record{submitRec("j3")}); err != nil {
		t.Fatal(err)
	}
	got := mustReplay(t, s2)
	if len(got) != 3 || got[0].JobID != "j1" || got[2].JobID != "j3" {
		t.Fatalf("Replay = %+v, want j1..j3", got)
	}
}

func TestSegmentsAndReadFromRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	const n = 20
	for i := 1; i <= n; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	seg, end, seq := s.Position()
	if seg != 1 || seq != n {
		t.Fatalf("Position = (segment %d, seq %d), want (1, %d)", seg, seq, n)
	}

	// Reading the segment from the header boundary and decoding the
	// frames must reproduce the journal exactly.
	frames, _, err := s.ReadFrom(seg, SegmentHeaderLen, whole)
	if err != nil {
		t.Fatalf("ReadFrom(%d): %v", seg, err)
	}
	if int64(len(frames)) != end-SegmentHeaderLen {
		t.Errorf("read %d bytes, Position reported %d", len(frames), end-SegmentHeaderLen)
	}
	all, _, err := scanSegment(append(synthHeader(), frames...))
	if err != nil {
		t.Fatalf("decode segment %d: %v", seg, err)
	}
	if len(all) != n {
		t.Fatalf("decoded %d records, want %d", len(all), n)
	}
	for i := range all {
		if want := fmt.Sprintf("j%d", i+1); all[i].JobID != want {
			t.Errorf("record %d JobID = %q, want %q", i, all[i].JobID, want)
		}
	}

	// Reading at the committed end is empty, not an error; a position
	// no segment ever had is ErrBadOffset.
	if b, _, err := s.ReadFrom(seg, end, whole); err != nil || len(b) != 0 {
		t.Fatalf("ReadFrom at end = (%d bytes, %v), want empty", len(b), err)
	}
	for _, pos := range [][2]int64{{int64(seg), end + 1}, {int64(seg + 1), SegmentHeaderLen}, {0, SegmentHeaderLen}, {int64(seg), SegmentHeaderLen - 1}} {
		if _, _, err := s.ReadFrom(int(pos[0]), pos[1], whole); !errors.Is(err, ErrBadOffset) {
			t.Errorf("ReadFrom(%d, %d) = %v, want ErrBadOffset", pos[0], pos[1], err)
		}
	}
}

// TestOpenTwoSegmentsAppendsToNewer: the data dir a crash between
// Compact's write and its deletes leaves — the old segment and the
// compacted one — opens with both replayed in order and the newer one
// as the append target. Only the newer one is served to a reader;
// the older is gone as far as a replication cursor is concerned.
func TestOpenTwoSegmentsAppendsToNewer(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, submitRec("j1"), submitRec("j2"))
	writeSegment(t, dir, 2, submitRec("j2"))
	s := testOpen(t, dir, Options{})
	if st := s.OpenStats(); st.Segments != 2 || st.Records != 3 {
		t.Fatalf("OpenStats = %+v, want 2 segments / 3 records", st)
	}
	if err := s.Append(submitRec("j3")); err != nil {
		t.Fatal(err)
	}
	if got := jobIDs(mustReplay(t, s)); got != "j1 j2 j2 j3" {
		t.Fatalf("live Replay = %s, want j1 j2 j2 j3", got)
	}
	seg, end, seq := s.Position()
	if seg != 2 || seq != 4 {
		t.Fatalf("Position = (segment %d, seq %d), want (2, 4)", seg, seq)
	}
	frames, n, err := s.ReadFrom(2, SegmentHeaderLen, whole)
	if err != nil || n != 2 || SegmentHeaderLen+int64(len(frames)) != end {
		t.Fatalf("ReadFrom(2) = (%d frames, %d bytes, %v), want 2 frames up to %d", n, len(frames), err, end)
	}
	if _, _, err := s.ReadFrom(1, SegmentHeaderLen, whole); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("ReadFrom(older segment) = %v, want ErrSegmentGone", err)
	}
	s.Close()

	s2 := testOpen(t, dir, Options{})
	if got := jobIDs(mustReplay(t, s2)); got != "j1 j2 j2 j3" {
		t.Fatalf("Replay after reopen = %s, want j1 j2 j2 j3", got)
	}
	if got := countSegments(t, dir); got != 2 {
		t.Fatalf("segments on disk = %d, want 2 (only Compact removes one)", got)
	}
}

func TestReadFromAfterCompactionSegmentGone(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	for i := 1; i <= 20; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seg, _, cursor := s.Position()

	if err := s.Compact([]Record{submitRec("j20")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The segment a reader was cursored on is gone; the reader must
	// see ErrSegmentGone and start again from Position.
	if _, _, err := s.ReadFrom(seg, SegmentHeaderLen, whole); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("ReadFrom(compacted segment) = %v, want ErrSegmentGone", err)
	}
	// Compaction rewrites bytes but assigns no new sequence numbers:
	// the replication cursor stays valid.
	seg2, end2, cursor2 := s.Position()
	if cursor2 != cursor {
		t.Errorf("cursor moved across Compact: %d -> %d", cursor, cursor2)
	}
	if seg2 != seg+1 || countSegments(t, dir) != 1 {
		t.Errorf("after Compact: append target %d, %d segment files, want %d and 1", seg2, countSegments(t, dir), seg+1)
	}
	frames, _, err := s.ReadFrom(seg2, SegmentHeaderLen, whole)
	if err != nil || SegmentHeaderLen+int64(len(frames)) != end2 {
		t.Fatalf("ReadFrom after Compact = (%d bytes, %v), want up to %d", len(frames), err, end2)
	}
	recs, _, err := scanSegment(append(synthHeader(), frames...))
	if err != nil || len(recs) != 1 || recs[0].JobID != "j20" {
		t.Fatalf("post-compaction segment decodes to %+v (%v), want [j20]", recs, err)
	}
}

// TestFailedAppendRolledBack: an append or batch whose fsync fails
// leaves no bytes in the segment, so the next append starts on a frame
// boundary, ReadFrom returns exactly the committed frames, and a
// reopen replays only the committed records.
func TestFailedAppendRolledBack(t *testing.T) {
	inj := fault.New(1)
	dir := t.TempDir()
	s := testOpen(t, dir, Options{Faults: inj})
	if err := s.Append(submitRec("a")); err != nil {
		t.Fatal(err)
	}
	inj.Arm(fault.StoreSync, fault.Rule{ErrRate: 1, MaxFaults: 2})
	if err := s.Append(submitRec("lost1")); err == nil {
		t.Fatal("armed store.fsync did not fail Append")
	}
	if err := s.AppendBatch([]Record{submitRec("lost2"), submitRec("lost3")}); err == nil {
		t.Fatal("armed store.fsync did not fail AppendBatch")
	}
	if err := s.Append(submitRec("b")); err != nil {
		t.Fatalf("Append after the failures: %v", err)
	}
	seg, end, seq := s.Position()
	if seg != 1 || seq != 2 || countSegments(t, dir) != 1 {
		t.Fatalf("Position() = (segment %d, seq %d) over %d files, want one segment at seq 2", seg, seq, countSegments(t, dir))
	}
	if st, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || st.Size() != end {
		t.Fatalf("segment file holds %v bytes (%v), committed %d", st.Size(), err, end)
	}
	frames, _, err := s.ReadFrom(1, SegmentHeaderLen, whole)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(frames)
	if err != nil || len(recs) != 2 || recs[0].JobID != "a" || recs[1].JobID != "b" {
		t.Fatalf("ReadFrom decodes to (%v, %v), want [a b]", recs, err)
	}
	s.Close()
	s2 := testOpen(t, dir, Options{})
	if recs := mustReplay(t, s2); len(recs) != 2 || recs[1].JobID != "b" {
		t.Fatalf("reopen replays %d records, want [a b]", len(recs))
	}
}
