// Package store binds a live+sharded engine to a write-ahead log and
// seal-keyed checkpoints, making live ingestion crash-safe.
//
// Every append is framed into the WAL before it reaches the engine, so the
// row stream and the log agree record for record: WAL LSN i is global row i.
// When the engine seals its tail, a background checkpointer writes the
// sealed shard's two columns once, as they are, into a columns file (times,
// then row-major attributes, then a CRC-32), the manifest is atomically
// republished with one fixed-size entry for the shard, and the WAL's
// low-water mark advances past the shard — so recovery loads sealed history
// in bulk from checkpoints and replays only the unsealed tail.
//
// Open is also the recovery path: it loads the manifest's checkpointed
// shards (zero WAL replay), repairs and replays the tail WAL through the
// normal append path (re-firing seals deterministically), and resumes
// ingestion at the exact next row. Crash-consistency ordering is: a shard's
// columns file and its directory entry are synced before the manifest
// references them, and the manifest's rename is synced before the WAL is
// truncated — a crash between any two steps leaves either
// redundant-but-unreferenced files or a longer-than-needed WAL, never data
// loss.
package store

import (
	"errors"
	"fmt"
	iofs "io/fs"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/sub"
	"repro/internal/wal"
)

// Options configures a durable Store.
type Options struct {
	// FS is the filesystem everything (WAL, checkpoints, manifest) lives
	// on; nil means the real one.
	FS wal.FS
	// Sync is the WAL fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncEvery is the wal.SyncInterval period (default 50ms).
	SyncEvery time.Duration
	// SegmentSize is the WAL segment rotation threshold (default 4 MiB).
	SegmentSize int64
	// Engine and Shard configure the underlying live+sharded engine
	// exactly as core.NewLiveShardedEngine; Shard.OnSeal, Shard.OnCompact
	// and Shard.OnRetire are reserved for the store's checkpointer and must
	// be nil. Shard.CompactFanout enables LSM compaction (the checkpointer
	// mirrors every merge as an atomic manifest level swap) and
	// Shard.RetainSpan bounded retention (mirrored as a manifest base
	// advance).
	Engine core.Options
	Shard  core.LiveShardOptions
	// KeepCheckpoints, when positive, retains the newest N manifest
	// generations as MANIFEST.<gen> backups (the newest is always
	// byte-identical to MANIFEST, so a torn or corrupted MANIFEST recovers
	// losslessly from it) and removes older generations. Zero writes one
	// MANIFEST and no backups. Whatever the value, columns files the live
	// manifest no longer references (crash leftovers, compacted and retired
	// shards) and stale manifest temps are removed at Open and after every
	// publish.
	KeepCheckpoints int
	// Logf, when set, receives recovery and checkpoint progress lines.
	Logf func(format string, args ...interface{})
}

// RecoveryStats describes what Open reconstructed.
type RecoveryStats struct {
	// RestoredRows is the number of rows loaded in bulk from checkpointed
	// sealed shards (zero WAL replay).
	RestoredRows int
	// RestoredShards is the number of checkpointed shards loaded.
	RestoredShards int
	// ReplayedRows is the number of tail rows replayed from the WAL.
	ReplayedRows int
	// WALReset reports that the WAL was behind the checkpoint manifest
	// (e.g. corruption truncated into sealed history) and was restarted at
	// the checkpoint boundary.
	WALReset bool
}

// workKind tags one unit of checkpointer work.
type workKind int

const (
	// workSeal persists a freshly sealed shard's columns and advances the WAL
	// low-water mark.
	workSeal workKind = iota
	// workCompact swaps a compacted run for its merged level shard in the
	// manifest: new columns file first, then the atomic manifest rename,
	// then GC of the replaced columns files.
	workCompact
	// workRetire advances the manifest's retention base past retired shards
	// and GCs their columns files.
	workRetire
)

// ckptWork is one queued unit of checkpointer work. lo and hi are stream
// positions, as the engine's lifecycle hooks report them; level is the
// merged shard's level for workCompact.
type ckptWork struct {
	kind   workKind
	lo, hi int
	level  int
}

// Store is a crash-safe live+sharded engine: appends are logged before they
// are applied, sealed shards are checkpointed, and Open recovers the full
// acknowledged stream. Safe for concurrent use: any number of concurrent
// queries (through Engine), one appender.
type Store struct {
	dir  string
	fs   wal.FS
	dims int
	opts Options

	log *wal.Log
	eng *core.LiveShardedEngine
	reg *sub.Registry

	// mu serializes appends and guards the sticky durability error.
	mu       sync.Mutex
	lastTime int64
	hasRows  bool
	err      error
	closed   bool

	// Checkpoint queue: OnSeal appends under ckptMu (nested inside the
	// engine lock, so it must stay tiny); the checkpointer goroutine drains
	// it without holding ckptMu across I/O. cond signals both new work and
	// completed work (for WaitCheckpoints).
	ckptMu      sync.Mutex
	cond        *sync.Cond
	pending     []ckptWork
	busy        bool
	subsDirty   bool // a registration changed; manifest needs republishing
	checkpoints int
	man         manifest // owned by the checkpointer after Open
	stop        chan struct{}
	wg          sync.WaitGroup

	stats RecoveryStats
}

// Open opens (or creates) a durable store in dir, recovering any previous
// state: checkpointed sealed shards load in bulk, the tail WAL is repaired
// and replayed, and the store resumes appends at the exact next row.
func Open(dir string, dims int, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = wal.OSFS{}
	}
	if opts.Shard.OnSeal != nil || opts.Shard.OnCompact != nil || opts.Shard.OnRetire != nil {
		return nil, errors.New("store: Shard lifecycle hooks are reserved for the checkpointer")
	}
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, fs: opts.FS, dims: dims, opts: opts, stop: make(chan struct{})}
	s.cond = sync.NewCond(&s.ckptMu)

	// 1. Load the checkpoint manifest and the sealed shards it references.
	man, err := readManifest(s.fs, dir)
	if err != nil {
		return nil, err
	}
	if man.Dims != 0 && man.Dims != dims {
		return nil, fmt.Errorf("store: manifest has dims %d, want %d", man.Dims, dims)
	}
	man.Dims = dims
	restored := make([]core.RestoredShard, 0, len(man.Shards))
	tailLo := man.Base // rows below Base were retired
	for _, e := range man.Shards {
		if e.Lo != tailLo {
			return nil, fmt.Errorf("store: manifest shard [%d,%d) is not contiguous with previous end %d", e.Lo, e.Hi, tailLo)
		}
		sh, err := loadShard(s.fs, dir, e, dims)
		if err != nil {
			return nil, fmt.Errorf("store: loading checkpointed shard [%d,%d): %w", e.Lo, e.Hi, err)
		}
		restored = append(restored, sh)
		tailLo = e.Hi
		s.stats.RestoredRows += e.Hi - e.Lo
		s.stats.RestoredShards++
	}
	s.man = man
	// Sweep crash leftovers before anything new is written: a checkpoint or
	// compaction that died before its manifest rename leaves synced columns
	// files no manifest references, and they would otherwise accumulate
	// silently forever.
	s.gcRetired()

	// 2. Rebuild the engine over the checkpointed history — no WAL replay
	// for sealed rows. The lifecycle hooks queue newly sealed, compacted and
	// retired ranges for the checkpointer (including events re-fired during
	// tail replay below).
	so := opts.Shard
	so.OnSeal = func(lo, hi int) { s.enqueue(ckptWork{kind: workSeal, lo: lo, hi: hi}) }
	so.OnCompact = func(lo, hi, level int) { s.enqueue(ckptWork{kind: workCompact, lo: lo, hi: hi, level: level}) }
	so.OnRetire = func(lo, hi int) { s.enqueue(ckptWork{kind: workRetire, lo: lo, hi: hi}) }
	eng, err := core.RestoreLiveShardedEngine(dims, opts.Engine, core.LiveOptions{}, so, man.Base, restored)
	if err != nil {
		return nil, err
	}
	s.eng = eng

	// 3. Repair and open the tail WAL, then replay rows past the
	// checkpoint boundary through the normal append path.
	walDir := filepath.Join(dir, "wal")
	wopts := wal.Options{FS: opts.FS, Sync: opts.Sync, SyncEvery: opts.SyncEvery, SegmentSize: opts.SegmentSize, Base: uint64(tailLo)}
	log, err := wal.Open(walDir, wopts)
	if err != nil {
		return nil, err
	}
	if log.Next() < uint64(tailLo) {
		// The WAL ends before the checkpointed history does (corruption
		// truncated into sealed rows, or the directory was lost). The
		// sealed rows are safe in checkpoints; restart the log at the
		// checkpoint boundary so LSNs and row indexes stay aligned.
		s.logf("store: wal ends at %d, behind checkpoint boundary %d; resetting", log.Next(), tailLo)
		if err := resetWAL(log, s.fs, walDir, wopts); err != nil {
			return nil, err
		}
		if log, err = wal.Open(walDir, wopts); err != nil {
			return nil, err
		}
		s.stats.WALReset = true
	}
	s.log = log
	err = log.Replay(uint64(tailLo), func(lsn uint64, t int64, attrs []float64) error {
		if uint64(s.eng.Len()) != lsn {
			return fmt.Errorf("store: replay desync: wal lsn %d, engine at row %d", lsn, s.eng.Len())
		}
		if _, _, err := s.eng.Append(t, attrs); err != nil {
			return fmt.Errorf("store: replaying lsn %d: %w", lsn, err)
		}
		s.stats.ReplayedRows++
		return nil
	})
	if err != nil {
		log.Close()
		return nil, err
	}
	if got, want := uint64(s.eng.Len()), s.log.Next(); got != want {
		log.Close()
		return nil, fmt.Errorf("store: after replay engine is at row %d but wal resumes at %d", got, want)
	}
	if ds := s.eng.Dataset(); ds.Len() > 0 {
		s.lastTime = ds.Time(ds.Len() - 1)
		s.hasRows = true
	}
	if s.stats.RestoredRows+s.stats.ReplayedRows > 0 {
		s.logf("store: recovered %d rows (%d from %d checkpointed shards, %d replayed from wal)",
			s.stats.RestoredRows+s.stats.ReplayedRows, s.stats.RestoredRows, s.stats.RestoredShards, s.stats.ReplayedRows)
	}

	// 4. Rebuild the standing-query registry at the recovered prefix and
	// restore the manifest's durable registrations (detached, awaiting
	// Resume). No appends run yet, so the replay inside each restore sees a
	// quiescent engine.
	s.reg = sub.NewRegistry(s.eng.Len())
	s.restoreSubs()
	s.reg.SetOnChange(s.markSubsDirty)

	// 5. Start the checkpointer; seals queued during replay drain first.
	s.wg.Add(1)
	go s.checkpointLoop()
	return s, nil
}

// resetWAL discards every segment so a fresh log can start at the
// checkpoint boundary.
func resetWAL(log *wal.Log, fs wal.FS, walDir string, _ wal.Options) error {
	if err := log.Close(); err != nil {
		return err
	}
	names, err := fs.ReadDir(walDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := fs.Remove(filepath.Join(walDir, name)); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) logf(format string, args ...interface{}) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// enqueue hands one unit of work to the checkpointer. The lifecycle hooks
// run inside the engine's lock, so they only queue; the FIFO order mirrors
// the engine's own state transitions (a compaction's constituent seals are
// always queued — and therefore checkpointed — before the compaction).
func (s *Store) enqueue(w ckptWork) {
	s.ckptMu.Lock()
	s.pending = append(s.pending, w)
	s.ckptMu.Unlock()
	s.cond.Broadcast()
}

// Engine returns the underlying live+sharded engine for queries. Appends
// must go through the store.
func (s *Store) Engine() *core.LiveShardedEngine { return s.eng }

// Rebuilds mirrors the engine's index rebuild count (see
// core.LiveShardedEngine.Rebuilds).
func (s *Store) Rebuilds() int { return s.eng.Rebuilds() }

// Stats returns what recovery reconstructed at Open.
func (s *Store) Stats() RecoveryStats { return s.stats }

// Err returns the sticky durability error, if any: once a checkpoint or
// commit fails, the store refuses further appends rather than silently
// diverging from its durable state.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// validate applies the engine's append rules up front, so a row is never
// logged unless the engine is guaranteed to accept it.
func (s *Store) validate(t int64, attrs []float64) error {
	if len(attrs) != s.dims {
		return fmt.Errorf("store: append got %d attrs, want %d", len(attrs), s.dims)
	}
	if s.hasRows && t <= s.lastTime {
		return fmt.Errorf("store: append time %d not increasing past %d", t, s.lastTime)
	}
	return nil
}

// append logs and applies one pre-validated row. Caller holds s.mu.
func (s *Store) appendLocked(t int64, attrs []float64) error {
	if _, err := s.log.Append(t, attrs); err != nil {
		return err
	}
	if _, _, err := s.eng.Append(t, attrs); err != nil {
		// Unreachable: validate() enforced the engine's rules before the
		// row was logged. Diverging here would leave the WAL ahead of the
		// engine, so fail loudly (matching the engine's own desync panic).
		panic(fmt.Sprintf("store: engine rejected a logged row: %v", err))
	}
	s.lastTime, s.hasRows = t, true
	return nil
}

// Append durably commits one record: the row is framed into the WAL and
// committed under the configured fsync policy before the engine applies it.
// The Decision and confirmations are always zero; per-append verdicts come
// from the store's standing-query registry (see Registry).
func (s *Store) Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error) {
	return monitor.Decision{}, nil, s.appendRow(t, attrs)
}

// appendRow is Append without the always-zero verdict results.
func (s *Store) appendRow(t int64, attrs []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if err := s.validate(t, attrs); err != nil {
		return err
	}
	if err := s.appendLocked(t, attrs); err != nil {
		return err
	}
	if err := s.log.Commit(); err != nil {
		// The row reached the engine but its durability is unknown; poison
		// the store so the caller cannot keep acknowledging appends. The
		// registry never observes the row: subscribers must not be told
		// about a row that may not survive a crash.
		s.err = fmt.Errorf("store: wal commit: %w", err)
		return s.err
	}
	s.observe(t, attrs)
	return nil
}

// Row is one record of a batch append.
type Row struct {
	T     int64
	Attrs []float64
}

// AppendBatch group-commits rows: every row is framed into the WAL, one
// Commit makes the whole batch durable (one fsync under wal.SyncAlways),
// then the engine applies them. On a validation failure the valid prefix is
// committed and applied, and the error identifies the offending row; the
// returned count is the number of rows actually appended. The decisions and
// confirmations are always nil; per-append verdicts come from the store's
// standing-query registry (see Registry).
func (s *Store) AppendBatch(rows []Row) (appended int, _ []monitor.Decision, _ []monitor.Confirmation, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, nil, wal.ErrClosed
	}
	if s.err != nil {
		return 0, nil, nil, s.err
	}
	for i, r := range rows {
		if verr := s.validate(r.T, r.Attrs); verr != nil {
			err = fmt.Errorf("row %d: %w", i, verr)
			break
		}
		if aerr := s.appendLocked(r.T, r.Attrs); aerr != nil {
			err = fmt.Errorf("row %d: %w", i, aerr)
			break
		}
		appended++
	}
	if cerr := s.log.Commit(); cerr != nil {
		s.err = fmt.Errorf("store: wal commit: %w", cerr)
		return appended, nil, nil, s.err
	}
	// Only now that the single group commit made the batch durable do
	// subscribers get to see it.
	for _, r := range rows[:appended] {
		s.observe(r.T, r.Attrs)
	}
	return appended, nil, nil, err
}

// Sync forces everything appended so far onto stable storage, regardless of
// the fsync policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return wal.ErrClosed
	}
	return s.log.Sync()
}

// Len returns the number of records committed so far: the stream position
// of the next append.
func (s *Store) Len() int { return s.eng.Len() }

// Checkpoints returns the number of sealed shards checkpointed so far.
func (s *Store) Checkpoints() int {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	return s.checkpoints
}

// WaitCheckpoints blocks until every queued seal has been checkpointed (or
// failed; see Err). Tests and orderly shutdown use it.
func (s *Store) WaitCheckpoints() {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	for len(s.pending) > 0 || s.busy {
		s.cond.Wait()
	}
}

// Close drains the checkpointer, waits for background freeze builds, syncs
// the WAL and closes it. The engine remains queryable after Close; appends
// fail.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()

	// No further appends means no further seals; wait for any in-flight
	// compaction chain so its manifest level swaps are queued before the
	// checkpointer drains and exits (a swap missed here is merely redone
	// after the next Open, but shutting down clean avoids the rework).
	s.eng.WaitCompacted()
	// stop closes under ckptMu like every other condition the checkpointer
	// waits on; closed outside it, the broadcast could fall between the
	// loop's stopped() check and its Wait and be lost.
	s.ckptMu.Lock()
	close(s.stop)
	s.ckptMu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
	s.eng.WaitSealed()
	// Final manifest publish: captures the last acked prefixes and any
	// registration change the checkpointer had not flushed. Skipped when
	// there is nothing subscription-related to record, so stores that never
	// saw a durable subscription keep their historical on-disk layout.
	var perr error
	if len(s.man.Subs) > 0 || len(s.reg.Snapshot()) > 0 || s.man.NextSub != s.reg.NextID() {
		perr = s.publishManifest()
	}
	err := s.log.Close()
	if perr != nil && err == nil {
		err = perr
	}
	s.mu.Lock()
	if s.err != nil && err == nil {
		err = s.err
	}
	s.mu.Unlock()
	return err
}

// checkpointLoop drains sealed ranges — persist shard columns, republish the
// manifest, advance the WAL low-water mark — and republishes the manifest
// when the subscription registration set changes. One unit of work at a
// time, in order; on stop it finishes the queue before exiting.
func (s *Store) checkpointLoop() {
	defer s.wg.Done()
	for {
		s.ckptMu.Lock()
		for len(s.pending) == 0 && !s.subsDirty {
			if s.stopped() {
				s.ckptMu.Unlock()
				return
			}
			// Close closes stop under ckptMu and then broadcasts, so
			// this always wakes.
			s.cond.Wait()
		}
		var w ckptWork
		doCkpt := len(s.pending) > 0
		if doCkpt {
			w = s.pending[0]
			s.pending = s.pending[1:]
		}
		// Every manifest write refreshes the registration set, so a queued
		// checkpoint also clears the dirty flag. Cleared before the
		// snapshot is taken: a registration landing mid-write re-dirties
		// and triggers another publish.
		s.subsDirty = false
		s.busy = true
		s.ckptMu.Unlock()

		var err error
		switch {
		case !doCkpt:
			err = s.publishManifest()
		case w.kind == workSeal:
			err = s.checkpoint(w)
		case w.kind == workCompact:
			err = s.compact(w)
		default:
			err = s.retire(w)
		}

		// The sticky error lands before busy clears: SyncSubscriptions reads
		// it as soon as it sees the checkpointer idle, and must not report a
		// failed publish as durable.
		if err != nil {
			if doCkpt {
				s.logf("store: checkpoint work (kind %d) on rows [%d,%d) failed: %v", w.kind, w.lo, w.hi, err)
			} else {
				s.logf("store: persisting subscriptions failed: %v", err)
			}
			s.mu.Lock()
			if s.err == nil {
				s.err = fmt.Errorf("store: checkpoint failed: %w", err)
			}
			s.mu.Unlock()
		}
		s.ckptMu.Lock()
		s.busy = false
		if err == nil && doCkpt && w.kind == workSeal {
			s.checkpoints++
		}
		s.ckptMu.Unlock()
		s.cond.Broadcast()
	}
}

func (s *Store) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// notExist reports a missing-file error from any FS implementation.
func notExist(err error) bool { return errors.Is(err, iofs.ErrNotExist) }
