package store

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanSegment drives the journal frame decoder with hostile
// segment images. The decoder must return an error for malformed
// input — never panic, never over-read.
func FuzzScanSegment(f *testing.F) {
	// Seed: a valid one-record segment built by hand.
	payload, _ := json.Marshal(Record{Type: RecSubmit, JobID: "j1"})
	valid := make([]byte, segHeaderLen+frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(valid[0:4], segMagic)
	binary.LittleEndian.PutUint16(valid[4:6], segVersion)
	binary.LittleEndian.PutUint32(valid[8:12], uint32(len(payload)))
	binary.LittleEndian.PutUint32(valid[12:16], crc32.ChecksumIEEE(payload))
	copy(valid[segHeaderLen+frameHeaderLen:], payload)
	f.Add(valid)
	f.Add(valid[:segHeaderLen])    // header only
	f.Add(valid[:len(valid)-3])    // torn payload
	f.Add([]byte{})                // empty file
	f.Add([]byte("CSJ1 not real")) // magic-ish prefix

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, _, err := scanSegment(data)
		// Every record that decodes must round-trip through the frame
		// encoder — the parser accepted it, so it is real data.
		if err == nil {
			for _, r := range recs {
				if _, merr := json.Marshal(r); merr != nil {
					t.Fatalf("accepted record does not re-encode: %v", merr)
				}
			}
		}
	})
}

// FuzzReadFromChunks writes every decodable frame stream as a segment
// and reads it back in 64-byte bounded reads: ReadFrom must accept the
// bytes, and its chunks must decode one by one to the same records,
// each chunk to the count ReadFrom reported.
func FuzzReadFromChunks(f *testing.F) {
	seed := func(recs ...Record) []byte {
		var buf []byte
		for _, r := range recs {
			fr, err := EncodeFrame(r)
			if err != nil {
				f.Fatal(err)
			}
			buf = append(buf, fr...)
		}
		return buf
	}
	f.Add([]byte(nil))
	f.Add(seed(Record{Type: RecSubmit, JobID: "j1", Request: json.RawMessage(`{"algo":"pr"}`)}))
	f.Add(seed(
		Record{Type: RecGraph, GraphID: "g", GraphSpec: json.RawMessage(`{"kind":"powerlaw"}`)},
		Record{Type: RecStart, JobID: "j1"},
		Record{Type: RecFinish, JobID: "j1", State: "done"},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeFrames(data)
		if err != nil {
			return
		}
		dir := t.TempDir()
		hdr := make([]byte, segHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
		binary.LittleEndian.PutUint16(hdr[4:6], segVersion)
		if err := os.WriteFile(filepath.Join(dir, segName(1)), append(hdr, data...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("Open over a decodable segment: %v", err)
		}
		defer s.Close()
		total := 0
		for off := int64(SegmentHeaderLen); ; {
			frames, n, err := s.ReadFrom(1, off, 64)
			if err != nil {
				t.Fatalf("ReadFrom(1, %d) rejected a decodable stream: %v", off, err)
			}
			if n == 0 {
				break
			}
			got, err := DecodeFrames(frames)
			if err != nil || len(got) != n {
				t.Fatalf("chunk at %d decodes to %d records (%v), ReadFrom counted %d", off, len(got), err, n)
			}
			total += n
			off += int64(len(frames))
		}
		if total != len(recs) {
			t.Fatalf("chunked decode count %d != %d", total, len(recs))
		}
	})
}
