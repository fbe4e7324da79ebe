// Package repl implements hot-standby replication for cosparsed by
// pull: the leader's journal file is the replication buffer, and a
// Follower long-polls the leader for the bytes after its cursor.
//
// The wire unit is the store's own journal frame (length + CRC32 +
// JSON payload), read verbatim from the leader's segment file: the
// follower verifies every checksum (store.DecodeFrames) before anything
// touches its journal, so a corrupt or torn response is rejected
// atomically — the same discipline the store applies to its own
// segments at Open.
//
// A leader session begins after recovery has compacted the journal,
// and only compaction starts a segment, so a session's journal is one
// segment file. A cursor is the leader's session nonce, its sequence
// number (1-based record count within a leader process) and the byte
// offset in that segment where the record ends, so the leader serves a
// poll with one file read and keeps no index. Sequence numbers do not
// survive a leader restart, so every leader process has a random
// session nonce; a cursor from another session, or one the leader's
// journal no longer holds, sends the follower to a full resync — the
// segment and every snapshot staged on the follower and committed
// atomically. A poll's cursor is also the
// follower's ack: the follower polls again only after its journal
// append returned, so the semisync wait counts durable records only.
//
// Epochs fence stale leaders. Promotion bumps the follower's persisted
// epoch and posts it to the old leader; a poll or fence post carrying
// an epoch above the leader's moves it to StateRejected permanently.
// A promoted node never polls, so nothing flows from a stale leader.
package repl

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
)

// Mode selects how tightly submit acks couple to replication.
type Mode int

const (
	// ModeAsync acks submits as soon as the leader's journal is
	// durable; the follower catches up in the background.
	ModeAsync Mode = iota
	// ModeSemiSync holds each submit ack until the follower has
	// acknowledged the submit's journal record. The ack falls back to
	// async, counted in metrics, when the semisync timeout fires or
	// when no follower has polled within it.
	ModeSemiSync
)

// ParseMode parses the -repl-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "async":
		return ModeAsync, nil
	case "semisync":
		return ModeSemiSync, nil
	}
	return ModeAsync, fmt.Errorf("repl: unknown mode %q (want async or semisync)", s)
}

// String renders the mode for status endpoints and logs.
func (m Mode) String() string {
	if m == ModeSemiSync {
		return "semisync"
	}
	return "async"
}

// Replication state codes, exported through the cosparsed_repl_state
// gauge and the /replication endpoint.
const (
	// StateOff: replication not configured.
	StateOff int64 = 0
	// StateIdle: leader no follower has polled yet.
	StateIdle int64 = 1
	// StateSyncing: full resync in flight (leader serving its resync
	// listing, or follower staging it).
	StateSyncing int64 = 2
	// StateStreaming: caught up and tailing appends.
	StateStreaming int64 = 3
	// StateDisconnected: follower cannot reach the leader and polls
	// again after a short pause.
	StateDisconnected int64 = 4
	// StateRejected: fenced by a higher epoch (stale leader after a
	// promote); terminal until operator intervention.
	StateRejected int64 = 5
)

// StateName renders a state code for human-facing status.
func StateName(code int64) string {
	names := [...]string{"off", "idle", "syncing", "streaming", "disconnected", "rejected"}
	if code < 0 || code >= int64(len(names)) {
		return "off"
	}
	return names[code]
}

// logf writes one replication lifecycle line to l, which may be nil.
func logf(l *slog.Logger, format string, args ...any) {
	if l != nil {
		l.Info(fmt.Sprintf(format, args...))
	}
}

// Stats is the lock-free counter block shared with the service's
// metrics endpoint. All fields are atomics; a zero Stats is ready.
type Stats struct {
	// State holds the current replication state code (State*).
	State atomic.Int64
	// LagRecords is the number of journaled records the peer has not
	// acknowledged (leader side) or the last reported leader lead
	// (follower side, 0 once caught up).
	LagRecords atomic.Int64
	// Resyncs counts full resyncs started.
	Resyncs atomic.Int64
	// SemisyncFallbacks counts submits acked without a follower ack:
	// the wait timed out, or no follower was present to wait for.
	SemisyncFallbacks atomic.Int64
	// SentRecords counts journal records served to the follower
	// (tail polls plus resync reads).
	SentRecords atomic.Int64
	// AppliedRecords counts records applied into the local journal
	// (follower side, including resync staging commits).
	AppliedRecords atomic.Int64
}

// StatusView is the JSON shape of the /replication endpoint. Leader
// and follower fill the fields that apply to their role.
type StatusView struct {
	Role  string `json:"role"`
	State string `json:"state"`
	Mode  string `json:"mode,omitempty"`
	Epoch uint64 `json:"epoch"`
	// Leader is the leader URL being followed (follower side).
	Leader     string `json:"leader,omitempty"`
	LagRecords int64  `json:"lag_records"`
	// AckedSeq is the highest sequence number the follower has
	// acknowledged (leader side).
	AckedSeq uint64 `json:"acked_seq,omitempty"`
	// AppliedSeq is the highest leader sequence number applied
	// locally (follower side).
	AppliedSeq        uint64 `json:"applied_seq,omitempty"`
	Resyncs           int64  `json:"resyncs"`
	SemisyncFallbacks int64  `json:"semisync_fallbacks,omitempty"`
	// SecondsSinceHeartbeat is the follower's view of leader
	// liveness; -1 before the first heartbeat.
	SecondsSinceHeartbeat float64 `json:"seconds_since_heartbeat,omitempty"`
}

const epochFile = "repl-epoch"

// LoadEpoch reads the persisted replication epoch from dir; a missing
// file is epoch 0 (never promoted, never fenced).
func LoadEpoch(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, epochFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("repl: read epoch: %w", err)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("repl: parse epoch: %w", err)
	}
	return e, nil
}

// SaveEpoch durably persists the replication epoch: the file is
// written and fsynced under a temporary name, renamed into place, and
// the directory is fsynced, so neither a crash nor a power loss after
// a promote can bring back the old epoch.
func SaveEpoch(dir string, epoch uint64) error {
	path := filepath.Join(dir, epochFile)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strconv.FormatUint(epoch, 10)), 0o644); err != nil {
		return fmt.Errorf("repl: write epoch: %w", err)
	}
	if err := syncPath(tmp); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("repl: rename epoch: %w", err)
	}
	return syncPath(dir)
}

// syncPath fsyncs a file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("repl: open %s for sync: %w", filepath.Base(path), err)
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return fmt.Errorf("repl: sync %s: %w", filepath.Base(path), err)
	}
	return nil
}
