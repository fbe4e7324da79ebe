package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
		segs, _, _ := s.Segments()
		ends = append(ends, segs[len(segs)-1].Bytes)
	}
	// Each record's frame, read back from the previous record's end
	// and stitched behind a segment header, decodes to exactly that
	// record — the contract a follower's cursor relies on.
	off := int64(SegmentHeaderLen)
	for i, end := range ends {
		frames, _, sealed, err := s.ReadFrom(1, off, whole)
		if err != nil || sealed {
			t.Fatalf("ReadFrom(1, %d) = (sealed %v, %v)", off, sealed, err)
		}
		got, err := ScanSegment(append(synthHeader(), frames[:end-off]...))
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
	s := testOpen(t, dir, Options{MaxSegmentBytes: 2048})
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
			frames, n, _, err := s.ReadFrom(1, off, tc.limit)
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
	if _, _, _, err := s.ReadFrom(1, SegmentHeaderLen+1, whole); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("ReadFrom mid-frame = %v, want ErrBadOffset", err)
	}
	// So is a sealed segment whose file ends in a torn frame.
	for len(mustSegments(t, s)) < 2 {
		if err := s.Append(submitRec("pad")); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(1)), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:fl-1]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	segs := mustSegments(t, s)
	off := segs[0].Bytes - int64(fl-1)
	if _, _, _, err := s.ReadFrom(1, off, whole); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("ReadFrom of a torn sealed tail = %v, want ErrBadOffset", err)
	}
}

func mustSegments(t *testing.T, s *Store) []SegmentInfo {
	t.Helper()
	segs, _, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	return segs
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
	if segs, _, _ := s.Segments(); int64(bytes) != segs[0].Bytes-SegmentHeaderLen {
		t.Fatalf("OnAppend saw %d bytes, segment holds %d", bytes, segs[0].Bytes-SegmentHeaderLen)
	}
	if got, _ := s.Replay(); len(got) != 3 || got[1].JobID != "j2" {
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
	got, _ := s2.Replay()
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
	got, _ := s2.Replay()
	if len(got) != 3 || got[0].JobID != "j1" || got[2].JobID != "j3" {
		t.Fatalf("Replay = %+v, want j1..j3", got)
	}
}

func TestSegmentsAndReadFromRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{MaxSegmentBytes: 128})
	const n = 20
	for i := 1; i <= n; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	segs, cursor, err := s.Segments()
	if err != nil {
		t.Fatalf("Segments: %v", err)
	}
	if cursor != n {
		t.Fatalf("cursor = %d, want %d", cursor, n)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation to yield multiple segments, got %d", len(segs))
	}
	for i, info := range segs {
		wantActive := i == len(segs)-1
		if info.Active != wantActive {
			t.Errorf("segment %d Active = %v, want %v", info.Index, info.Active, wantActive)
		}
		if i > 0 && info.Index <= segs[i-1].Index {
			t.Errorf("segments out of order: %d after %d", info.Index, segs[i-1].Index)
		}
	}

	// Reading every segment from the header boundary and decoding the
	// stitched frames must reproduce the journal exactly.
	var all []Record
	for _, info := range segs {
		frames, _, sealed, err := s.ReadFrom(info.Index, SegmentHeaderLen, whole)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", info.Index, err)
		}
		if sealed == info.Active {
			t.Errorf("segment %d: sealed = %v, Active = %v", info.Index, sealed, info.Active)
		}
		if int64(len(frames)) != info.Bytes-SegmentHeaderLen {
			t.Errorf("segment %d: read %d bytes, Segments reported %d", info.Index, len(frames), info.Bytes-SegmentHeaderLen)
		}
		recs, err := ScanSegment(append(synthHeader(), frames...))
		if err != nil {
			t.Fatalf("decode segment %d: %v", info.Index, err)
		}
		all = append(all, recs...)
	}
	if len(all) != n {
		t.Fatalf("decoded %d records across segments, want %d", len(all), n)
	}
	for i := range all {
		if want := fmt.Sprintf("j%d", i+1); all[i].JobID != want {
			t.Errorf("record %d JobID = %q, want %q", i, all[i].JobID, want)
		}
	}

	// Reading at the committed end is empty, not an error; a position
	// no segment ever had is ErrBadOffset.
	last := segs[len(segs)-1]
	if b, _, _, err := s.ReadFrom(last.Index, last.Bytes, whole); err != nil || len(b) != 0 {
		t.Fatalf("ReadFrom at end = (%d bytes, %v), want empty", len(b), err)
	}
	for _, pos := range [][2]int64{{int64(last.Index), last.Bytes + 1}, {int64(last.Index + 1), SegmentHeaderLen}, {0, SegmentHeaderLen}, {int64(last.Index), SegmentHeaderLen - 1}} {
		if _, _, _, err := s.ReadFrom(int(pos[0]), pos[1], whole); !errors.Is(err, ErrBadOffset) {
			t.Errorf("ReadFrom(%d, %d) = %v, want ErrBadOffset", pos[0], pos[1], err)
		}
	}
}

func TestReadFromAfterCompactionSegmentGone(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{MaxSegmentBytes: 128})
	for i := 1; i <= 20; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	segs, cursor, err := s.Segments()
	if err != nil || len(segs) < 2 {
		t.Fatalf("Segments = (%d segs, %v), want >= 2", len(segs), err)
	}
	sealed := segs[0].Index

	if err := s.Compact([]Record{submitRec("j20")}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The sealed segment a reader was cursored on is gone; the reader
	// must see ErrSegmentGone and restart its resync from Segments().
	if _, _, _, err := s.ReadFrom(sealed, SegmentHeaderLen, whole); !errors.Is(err, ErrSegmentGone) {
		t.Fatalf("ReadFrom(compacted segment) = %v, want ErrSegmentGone", err)
	}
	// Compaction rewrites bytes but assigns no new sequence numbers:
	// the replication cursor stays valid.
	segs2, cursor2, err := s.Segments()
	if err != nil {
		t.Fatalf("Segments after Compact: %v", err)
	}
	if cursor2 != cursor {
		t.Errorf("cursor moved across Compact: %d -> %d", cursor, cursor2)
	}
	if len(segs2) != 1 || !segs2[0].Active {
		t.Errorf("segments after Compact = %+v, want single active", segs2)
	}
	frames, _, _, err := s.ReadFrom(segs2[0].Index, SegmentHeaderLen, whole)
	if err != nil {
		t.Fatalf("ReadFrom after Compact: %v", err)
	}
	recs, err := ScanSegment(append(synthHeader(), frames...))
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
	segs, seq, err := s.Segments()
	if err != nil || len(segs) != 1 || seq != 2 {
		t.Fatalf("Segments() = (%v, %d, %v), want one segment at seq 2", segs, seq, err)
	}
	if st, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || st.Size() != segs[0].Bytes {
		t.Fatalf("segment file holds %v bytes (%v), committed %d", st.Size(), err, segs[0].Bytes)
	}
	frames, _, _, err := s.ReadFrom(1, SegmentHeaderLen, whole)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeFrames(frames)
	if err != nil || len(recs) != 2 || recs[0].JobID != "a" || recs[1].JobID != "b" {
		t.Fatalf("ReadFrom decodes to (%v, %v), want [a b]", recs, err)
	}
	s.Close()
	s2 := testOpen(t, dir, Options{})
	if recs, _ := s2.Replay(); len(recs) != 2 || recs[1].JobID != "b" {
		t.Fatalf("reopen replays %d records, want [a b]", len(recs))
	}
}
