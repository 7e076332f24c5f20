package durable

import (
	"repro/internal/store"
	"repro/internal/wal"
)

// Store is a crash-safe live+sharded engine: every acknowledged append is
// framed into a write-ahead log before the engine applies it, sealed tail
// shards are checkpointed into page-structured files keyed to the seal
// lifecycle, and Recover reconstructs the full acknowledged stream after a
// process kill. Query it through Store.Engine (the usual Querier contract);
// append through Store.Append or Store.AppendBatch.
type Store = store.Store

// StoreOptions configures a durable store: the WAL fsync policy and segment
// sizing plus the engine and seal-lifecycle options a live+sharded engine
// takes (Open with WithOptions and WithLiveSharding).
type StoreOptions = store.Options

// StoreRow is one record of a durable batch append.
type StoreRow = store.Row

// RecoveryStats reports what Recover reconstructed: rows bulk-loaded from
// sealed-shard checkpoints (zero WAL replay) versus rows replayed from the
// tail WAL.
type RecoveryStats = store.RecoveryStats

// SyncPolicy selects when WAL commits reach stable storage.
type SyncPolicy = wal.SyncPolicy

// WAL fsync policies: SyncAlways fsyncs every commit (an acknowledged
// append survives any crash), SyncInterval fsyncs on a background ticker
// (bounded loss window), SyncNone leaves flushing to the OS.
const (
	SyncAlways   = wal.SyncAlways
	SyncInterval = wal.SyncInterval
	SyncNone     = wal.SyncNone
)

// ParseSyncPolicy converts "always", "interval" or "none" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// Recover opens (or creates) a crash-safe live+sharded store in dir for
// d-dimensional records. Existing state is recovered exactly: checkpointed
// sealed shards load in bulk from their columns files, the tail WAL is
// repaired (a torn final record is truncated) and replayed through the
// normal append path, and the store resumes ingestion at the exact next
// row. The recovered engine answers every query identically to one that
// never crashed, over the durable prefix of the stream: record ids are
// stream positions, so under bounded retention a recovered store names every
// retained record as it did before, and Len counts the whole stream.
func Recover(dir string, d int, opts StoreOptions) (*Store, error) {
	return store.Open(dir, d, opts)
}
