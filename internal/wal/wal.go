// Package wal implements the write-ahead log that makes live ingestion
// crash-safe. The live engine (core.LiveShardedEngine; a core.LiveEngine is
// the one that never seals) ingests entirely in memory; this package gives
// it a durable append stream so a killed process can recover every
// acknowledged row.
//
// A log is a directory of segment files named %020d.wal after the LSN of
// their first record. LSNs are dense: record i of the stream has LSN
// base+i, so for the durable engines an LSN is exactly a global row index.
// Within a segment each record is framed as
//
//	uint32 LE length | uint32 LE CRC32-IEEE(payload) | payload
//
// Appends are group-committed: Append buffers frames in memory and Commit
// writes them with a single WriteAt, syncing per the configured policy
// (SyncAlways fsyncs every commit; SyncInterval fsyncs from a background
// ticker; SyncNone leaves flushing to the OS). Segments rotate once they
// exceed Options.SegmentSize; TruncateBefore drops whole segments below
// the low-water mark once a checkpoint makes their rows durable elsewhere.
//
// Open repairs a torn tail: it scans forward from the first segment and,
// at the first frame whose length or checksum does not verify, truncates
// that segment and removes every later one. Everything before the torn
// frame — the durable prefix — is preserved and replayable.
package wal

import (
	"errors"
	"time"
)

// SyncPolicy selects when commits reach stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every Commit: an acknowledged append survives
	// any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker every Options.SyncEvery:
	// a crash loses at most the last interval's commits.
	SyncInterval
	// SyncNone never fsyncs explicitly: durability is whatever the OS
	// flushes on its own. Fastest; for bulk loads and benchmarks.
	SyncNone
)

// String implements flag.Value-style rendering ("always"/"interval"/"none").
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "unknown"
}

// ParseSyncPolicy parses "always", "interval" or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, errors.New("wal: unknown sync policy " + s + " (want always, interval or none)")
}

// Options configures a Log.
type Options struct {
	// FS is the filesystem the log lives on; nil means the real one (OSFS).
	FS FS
	// SegmentSize is the rotation threshold in bytes (default 4 MiB). A
	// segment rotates at the first commit that carries it past the
	// threshold, so segments slightly exceed it.
	SegmentSize int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval ticker period (default 50ms).
	SyncEvery time.Duration
	// Base is the LSN of the first record when creating a new, empty log.
	// Ignored when the directory already holds segments.
	Base uint64
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = 4 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	return o
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log is closed")
