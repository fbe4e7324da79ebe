package repl

import (
	"fmt"

	"cosparse/internal/store"
)

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
