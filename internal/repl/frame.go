package repl

import (
	"encoding/binary"
	"fmt"

	"cosparse/internal/store"
)

// EncodeFrame encodes one record in the journal's wire framing. The
// leader serves the frames the store already wrote (byte-for-byte
// what hit the leader's disk); this encoder exists for tests and the
// fuzz corpus.
func EncodeFrame(r store.Record) ([]byte, error) { return store.EncodeFrame(r) }

// DecodeFrames decodes a batch of concatenated journal frames,
// verifying every CRC. It is strict: trailing bytes, a torn frame, a
// checksum mismatch, or an undecodable payload fail the whole batch
// with a nil record slice, so the follower's apply is all-or-nothing
// — a torn response can never half-apply.
// Guaranteed not to panic on arbitrary input (fuzzed by FuzzReplFrame).
func DecodeFrames(data []byte) ([]store.Record, error) {
	recs, err := store.DecodeFrames(data)
	if err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	return recs, nil
}

// splitFrames splits a run of journal frames into chunks of at most
// chunkBytes, never tearing a frame across chunks (the follower
// CRC-verifies each response independently). A single frame larger
// than chunkBytes becomes its own chunk.
func splitFrames(data []byte, chunkBytes int) ([][]byte, error) {
	var chunks [][]byte
	start, off := 0, 0
	for off < len(data) {
		if len(data)-off < store.FrameHeaderLen {
			return nil, fmt.Errorf("torn frame header at offset %d", off)
		}
		length := int(binary.LittleEndian.Uint32(data[off:]))
		if length <= 0 || length > store.MaxRecordLen {
			return nil, fmt.Errorf("implausible frame length %d at offset %d", length, off)
		}
		next := off + store.FrameHeaderLen + length
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

// frameCount counts the frames in a chunk splitFrames returned.
func frameCount(data []byte) uint64 {
	var n uint64
	for off := 0; off < len(data); n++ {
		off += store.FrameHeaderLen + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return n
}
