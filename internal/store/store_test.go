package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cosparse/internal/fault"
)

func testOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submitRec(jobID string) Record {
	return Record{Type: RecSubmit, JobID: jobID, Request: json.RawMessage(`{"algo":"pr"}`), TimeoutMS: 1000}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	want := []Record{
		{Type: RecGraph, GraphID: "g1", GraphSpec: json.RawMessage(`{"kind":"powerlaw"}`)},
		submitRec("j1"),
		{Type: RecStart, JobID: "j1"},
		{Type: RecFinish, JobID: "j1", State: "done"},
	}
	for _, r := range want {
		if err := s.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := testOpen(t, dir, Options{})
	got, stats := mustReplay(t, s2), s2.OpenStats()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].JobID != want[i].JobID || got[i].GraphID != want[i].GraphID {
			t.Errorf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.Truncated || stats.TornBytes != 0 {
		t.Errorf("clean journal reported truncation: %+v", stats)
	}
	if stats.Segments != 1 || stats.Records != len(want) {
		t.Errorf("stats = %+v, want 1 segment / %d records", stats, len(want))
	}
}

func TestJournalAppendAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	if err := s.Append(submitRec("j1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Close()

	s2 := testOpen(t, dir, Options{})
	if err := s2.Append(submitRec("j2")); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	s2.Close()

	s3 := testOpen(t, dir, Options{})
	got := mustReplay(t, s3)
	if len(got) != 2 || got[0].JobID != "j1" || got[1].JobID != "j2" {
		t.Fatalf("replay after reopen+append = %+v", got)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	if err := s.Append(submitRec("j1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	s.Close()

	// Simulate a crash mid-append: a frame header promising more bytes
	// than exist.
	path := filepath.Join(dir, segName(1))
	torn := make([]byte, frameHeaderLen+3)
	binary.LittleEndian.PutUint32(torn[0:4], 100) // claims 100 payload bytes
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(torn)
	f.Close()
	before, _ := os.Stat(path)

	s2 := testOpen(t, dir, Options{})
	got, stats := mustReplay(t, s2), s2.OpenStats()
	if len(got) != 1 || got[0].JobID != "j1" {
		t.Fatalf("replay after torn tail = %+v", got)
	}
	if !stats.Truncated || stats.TornBytes != int64(len(torn)) {
		t.Errorf("stats = %+v, want truncated %d bytes", stats, len(torn))
	}
	after, _ := os.Stat(path)
	if after.Size() != before.Size()-int64(len(torn)) {
		t.Errorf("segment not truncated: %d -> %d", before.Size(), after.Size())
	}

	// The truncated journal must accept appends and replay cleanly again.
	if err := s2.Append(submitRec("j2")); err != nil {
		t.Fatalf("Append after truncation: %v", err)
	}
	s2.Close()
	s3 := testOpen(t, dir, Options{})
	got, stats = mustReplay(t, s3), s3.OpenStats()
	if len(got) != 2 || stats.Truncated {
		t.Fatalf("third open: %d records truncated=%v, want 2/false", len(got), stats.Truncated)
	}
}

func TestJournalCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	s.Append(submitRec("j1"))
	s.Append(submitRec("j2"))
	s.Close()

	// Flip a bit in the last record's payload: CRC catches it, and the
	// tail from that record on is discarded.
	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x40
	os.WriteFile(path, data, 0o644)

	s2 := testOpen(t, dir, Options{})
	got, stats := mustReplay(t, s2), s2.OpenStats()
	if len(got) != 1 || got[0].JobID != "j1" {
		t.Fatalf("replay after corrupt tail = %+v", got)
	}
	if !stats.Truncated {
		t.Error("corrupt payload not reported as truncated")
	}
}

func TestJournalCorruptMiddleSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, submitRec("j1"))
	writeSegment(t, dir, 2, submitRec("j2"))

	// Corrupt the FIRST segment. It is not the tail, so Open must fail:
	// a committed record vanished and recovery must not guess.
	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	data[len(data)-2] ^= 0x40
	os.WriteFile(path, data, 0o644)

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open succeeded with corrupt non-tail segment")
	} else if !strings.Contains(err.Error(), segName(1)) {
		t.Errorf("error does not name the bad segment: %v", err)
	}
}

func TestJournalVersionSkewRejected(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	s.Append(submitRec("j1"))
	s.Close()

	path := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(path)
	binary.LittleEndian.PutUint16(data[4:6], segVersion+1)
	os.WriteFile(path, data, 0o644)

	// Version skew on the only (= last) segment truncates everything
	// after offset 0, i.e. the whole file fails to parse — but because
	// the header itself is bad we refuse rather than truncate to zero.
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a future-version segment")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Errorf("error does not mention version: %v", err)
	}
}

func TestJournalTornSegmentCreationRemoved(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	s.Append(submitRec("j1"))
	s.Close()

	// Simulate a crash between segment create and header write: a file
	// shorter than any valid header. Open must delete it and keep
	// appending to the previous segment.
	stub := filepath.Join(dir, segName(2))
	if err := os.WriteFile(stub, []byte{0x43, 0x53}, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := testOpen(t, dir, Options{})
	got, stats := mustReplay(t, s2), s2.OpenStats()
	if len(got) != 1 || !stats.Truncated {
		t.Fatalf("replay = %d records truncated=%v, want 1/true", len(got), stats.Truncated)
	}
	if _, err := os.Stat(stub); !os.IsNotExist(err) {
		t.Error("torn segment stub survived Open")
	}
	if err := s2.Append(submitRec("j2")); err != nil {
		t.Fatalf("Append after torn-creation cleanup: %v", err)
	}
}

func TestJournalBadMagicRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("not a journal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a garbage segment")
	}
}

// TestJournalRotationAndCompaction: Compact is the only rotation. It
// writes the live records into a fresh segment and deletes every older
// one — both files of a crash mid-compaction included — and appends
// continue into the new segment.
func TestJournalRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, 1, submitRec("j1"))
	writeSegment(t, dir, 2, submitRec("j1"), submitRec("j2"))
	s := testOpen(t, dir, Options{})
	for i := 3; i <= 20; i++ {
		if err := s.Append(submitRec(fmt.Sprintf("j%d", i))); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if got := countSegments(t, dir); got != 2 {
		t.Fatalf("appends changed the segment count to %d, want 2", got)
	}

	// Compact down to two live records; old segments must vanish and a
	// reopen must see exactly the live set.
	live := []Record{submitRec("j19"), submitRec("j20")}
	if err := s.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := countSegments(t, dir); got != 1 {
		t.Errorf("segments after compaction = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(3))); err != nil {
		t.Errorf("compacted segment: %v, want %s", err, segName(3))
	}
	// Appends continue into the compacted segment.
	if err := s.Append(submitRec("j21")); err != nil {
		t.Fatalf("Append after compaction: %v", err)
	}
	if got := jobIDs(mustReplay(t, s)); got != "j19 j20 j21" {
		t.Fatalf("live replay after compaction = %s", got)
	}
	s.Close()

	s2 := testOpen(t, dir, Options{})
	got := mustReplay(t, s2)
	if len(got) != 3 || got[0].JobID != "j19" || got[2].JobID != "j21" {
		t.Fatalf("replay after compaction = %+v", got)
	}
}

// TestJournalStaysOneSegment: appends never start a segment, however
// large the journal grows (here past 4 MiB), and Replay reads every
// record back in order from that one file, live and after a reopen.
func TestJournalStaysOneSegment(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{NoSync: true})
	pad := strings.Repeat("x", 4000)
	rec := func(i int) Record {
		return Record{Type: RecSubmit, JobID: fmt.Sprintf("j%d", i), Request: json.RawMessage(`{"pad":"` + pad + `"}`)}
	}
	n := 0
	for ; ; n++ {
		if _, end, _ := s.Position(); end > 4<<20+4096 {
			break
		}
		if n%2 == 0 {
			if err := s.Append(rec(n)); err != nil {
				t.Fatal(err)
			}
		} else if err := s.AppendBatch([]Record{rec(n)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, s *Store) {
		t.Helper()
		if got := countSegments(t, dir); got != 1 {
			t.Fatalf("%s: %d segment files, want 1", when, got)
		}
		recs := mustReplay(t, s)
		if len(recs) != n {
			t.Fatalf("%s: Replay returned %d records, want %d", when, len(recs), n)
		}
		for i, r := range recs {
			if r.JobID != fmt.Sprintf("j%d", i) {
				t.Fatalf("%s: record %d is %s", when, i, r.JobID)
			}
		}
	}
	check("live", s)
	s.Close()
	s2 := testOpen(t, dir, Options{NoSync: true})
	if seg, _, seq := s2.Position(); seg != 1 || seq != uint64(n) {
		t.Fatalf("reopen: Position = (segment %d, seq %d), want (1, %d)", seg, seq, n)
	}
	check("after reopen", s2)
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if segIndex(e.Name()) >= 0 {
			n++
		}
	}
	return n
}

func TestJournalOnAppendObservesBytes(t *testing.T) {
	dir := t.TempDir()
	var total int
	s := testOpen(t, dir, Options{OnAppend: func(n int) { total += n }})
	s.Append(submitRec("j1"))
	s.Append(submitRec("j2"))
	st, _ := os.Stat(filepath.Join(dir, segName(1)))
	if int64(total) != st.Size()-segHeaderLen {
		t.Errorf("OnAppend total = %d, want %d (file %d - header %d)", total, st.Size()-segHeaderLen, st.Size(), segHeaderLen)
	}
}

func TestJournalClosedRejectsAppend(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	s.Close()
	if err := s.Append(submitRec("j1")); err != ErrClosed {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := s.WriteSnapshot("j1", []byte("x")); err != ErrClosed {
		t.Fatalf("WriteSnapshot after Close = %v, want ErrClosed", err)
	}
	if err := s.Compact(nil); err != ErrClosed {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
}

func TestSnapshotRotationAndFallback(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})

	if snaps, err := s.LoadSnapshots("j1"); err != nil || len(snaps) != 0 {
		t.Fatalf("LoadSnapshots on empty dir = %v, %v", snaps, err)
	}

	if err := s.WriteSnapshot("j1", []byte("gen1")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if err := s.WriteSnapshot("j1", []byte("gen2")); err != nil {
		t.Fatalf("WriteSnapshot gen2: %v", err)
	}
	snaps, err := s.LoadSnapshots("j1")
	if err != nil {
		t.Fatalf("LoadSnapshots: %v", err)
	}
	if len(snaps) != 2 || string(snaps[0]) != "gen2" || string(snaps[1]) != "gen1" {
		t.Fatalf("snapshots newest-first = %q", snaps)
	}

	// Simulate the crash window between the two renames: cur absent,
	// prev intact. The loader must still surface the previous generation.
	cur := filepath.Join(dir, snapName("j1"))
	if err := os.Remove(cur); err != nil {
		t.Fatal(err)
	}
	snaps, err = s.LoadSnapshots("j1")
	if err != nil || len(snaps) != 1 || string(snaps[0]) != "gen1" {
		t.Fatalf("fallback after missing cur = %q, %v", snaps, err)
	}

	if err := s.DeleteSnapshots("j1"); err != nil {
		t.Fatalf("DeleteSnapshots: %v", err)
	}
	if snaps, _ := s.LoadSnapshots("j1"); len(snaps) != 0 {
		t.Fatalf("snapshots survive DeleteSnapshots: %q", snaps)
	}
	// Deleting again is fine.
	if err := s.DeleteSnapshots("j1"); err != nil {
		t.Fatalf("second DeleteSnapshots: %v", err)
	}
}

func TestSnapshotJobIDs(t *testing.T) {
	dir := t.TempDir()
	s := testOpen(t, dir, Options{})
	s.WriteSnapshot("j3", []byte("a"))
	s.WriteSnapshot("j1", []byte("b"))
	s.WriteSnapshot("j1", []byte("c")) // rotates; .prev must not double-count
	ids, err := s.SnapshotJobIDs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("SnapshotJobIDs = %v, want 2 ids", ids)
	}
	seen := map[string]bool{}
	for _, id := range ids {
		seen[id] = true
	}
	if !seen["j1"] || !seen["j3"] {
		t.Fatalf("SnapshotJobIDs = %v, want j1 and j3", ids)
	}
}

func TestSnapshotRejectsHostileJobID(t *testing.T) {
	s := testOpen(t, t.TempDir(), Options{})
	for _, id := range []string{"", "../escape", "a/b", `a\b`} {
		if err := s.WriteSnapshot(id, []byte("x")); err == nil {
			t.Errorf("WriteSnapshot(%q) accepted hostile id", id)
		}
		if _, err := s.LoadSnapshots(id); err == nil {
			t.Errorf("LoadSnapshots(%q) accepted hostile id", id)
		}
		if err := s.DeleteSnapshots(id); err == nil {
			t.Errorf("DeleteSnapshots(%q) accepted hostile id", id)
		}
	}
}

func TestFaultPointsCoverDurabilityIO(t *testing.T) {
	inj := fault.New(1)
	inj.Arm(fault.JournalAppend, fault.Rule{ErrRate: 1})
	dir := t.TempDir()
	s := testOpen(t, dir, Options{Faults: inj})
	if err := s.Append(submitRec("j1")); err == nil {
		t.Fatal("armed journal_append did not fail Append")
	}
	inj.DisarmAll()
	if err := s.Append(submitRec("j1")); err != nil {
		t.Fatalf("Append after disarm: %v", err)
	}

	inj.Arm(fault.SnapshotWrite, fault.Rule{ErrRate: 1})
	if err := s.WriteSnapshot("j1", []byte("x")); err == nil {
		t.Fatal("armed snapshot_write did not fail WriteSnapshot")
	}
	inj.DisarmAll()

	inj.Arm(fault.StoreSync, fault.Rule{ErrRate: 1})
	if err := s.Append(submitRec("j2")); err == nil {
		t.Fatal("armed store.fsync did not fail Append")
	}
	inj.DisarmAll()
	s.Close()

	// Replay faults surface as Open errors.
	inj.Arm(fault.RecoverReplay, fault.Rule{ErrRate: 1})
	if _, err := Open(dir, Options{Faults: inj}); err == nil {
		t.Fatal("armed recover_replay did not fail Open")
	}
	inj.DisarmAll()
	s2, err := Open(dir, Options{Faults: inj})
	if err != nil {
		t.Fatalf("Open after disarm: %v", err)
	}
	// j2's append failed at its fsync, so it was rolled back out of the
	// segment: only j1 replays.
	got := mustReplay(t, s2)
	if len(got) != 1 || got[0].JobID != "j1" {
		t.Fatalf("replay after fault exercise = %d records, want 1 (j1)", len(got))
	}
	s2.Close()
}

func TestScanSegmentHeaderOnly(t *testing.T) {
	hdr := make([]byte, segHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
	recs, _, err := scanSegment(hdr)
	if err != nil || len(recs) != 0 {
		t.Fatalf("header-only segment = %v, %v", recs, err)
	}
}

func TestScanSegmentZeroLengthFrame(t *testing.T) {
	buf := make([]byte, segHeaderLen+frameHeaderLen)
	binary.LittleEndian.PutUint32(buf[0:4], segMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segVersion)
	// length=0 frame: implausible, must stop the scan with an error.
	if _, _, err := scanSegment(buf); err == nil {
		t.Fatal("zero-length frame accepted")
	}
}

func TestScanSegmentValidFrameByHand(t *testing.T) {
	payload, _ := json.Marshal(Record{Type: RecStart, JobID: "j9"})
	buf := make([]byte, segHeaderLen+frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], segMagic)
	binary.LittleEndian.PutUint16(buf[4:6], segVersion)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[12:16], crc32.ChecksumIEEE(payload))
	copy(buf[segHeaderLen+frameHeaderLen:], payload)
	recs, _, err := scanSegment(buf)
	if err != nil || len(recs) != 1 || recs[0].JobID != "j9" {
		t.Fatalf("hand-built frame = %+v, %v", recs, err)
	}
}
