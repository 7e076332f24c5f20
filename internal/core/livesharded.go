package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/monitor"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/topk"
)

// LiveShardOptions configures the seal/freeze lifecycle of a
// LiveShardedEngine.
type LiveShardOptions struct {
	// SealRows freezes the mutable tail into an immutable static shard once
	// it holds this many records. 0 disables the row rule — unless SealSpan
	// is also 0, in which case SealRows defaults to DefaultSealRows (an
	// unbounded tail would degenerate into a plain live engine).
	SealRows int
	// SealSpan freezes the tail once its arrivals span at least this many
	// time ticks (last arrival - first arrival >= SealSpan). 0 disables the
	// span rule. When both rules are set, whichever trips first seals.
	SealSpan int64
	// CompactFanout, when >= 2, enables background LSM compaction: every run
	// of CompactFanout adjacent sealed shards sharing a level is merged into
	// one shard at the next level (see compact.go), bounding the live shard
	// count to O(CompactFanout · log n) on an unbounded stream. 0 (and 1)
	// disable compaction — the historical flat lifecycle.
	CompactFanout int
	// RetainSpan, when > 0, bounds retention: after each seal, sealed shards
	// whose every arrival is older than (latest arrival − RetainSpan) ticks
	// are retired — removed whole from every future query epoch, so answers
	// match a batch engine over the retained suffix. 0 retains everything.
	RetainSpan int64
	// OnSeal, when set, is invoked after every tail seal with the half-open
	// global row range [lo, hi) that was frozen. It runs with the engine's
	// internal lock held, so it must be fast and must not call back into
	// the engine — the durability layer uses it to hand the range to a
	// checkpointing goroutine.
	OnSeal func(lo, hi int)
	// OnCompact, when set, is invoked after a compaction merges sealed rows
	// [lo, hi) into one shard at the given level. Same contract as OnSeal
	// (lock held, must be fast, no reentry); the durability layer uses it to
	// queue the atomic manifest level swap.
	OnCompact func(lo, hi, level int)
	// OnRetire, when set, is invoked after retention retires sealed rows
	// [lo, hi) from the live set. Same contract as OnSeal; the durability
	// layer uses it to advance the manifest's retention base.
	OnRetire func(lo, hi int)
}

// DefaultSealRows is the tail seal threshold when LiveShardOptions specifies
// neither rule.
const DefaultSealRows = 4096

// LiveShardedEngine composes live ingestion with time sharding — the
// LSM-flavored lifecycle that keeps the unit of rebuild work bounded on an
// unbounded stream. Appends route to a
// single mutable tail shard (a LiveEngine over an appendable columnar tail);
// when the tail trips a seal threshold (row count or time span, see
// LiveShardOptions) it is sealed — immediately immutable and queryable
// through its pinned snapshot — then frozen in the background into a static
// Engine shard over a zero-copy slice of the global storage, while a fresh
// empty tail takes the appends.
// A query is one span over the sealed shards plus the tail, evaluated exactly
// as on a ShardedEngine (merge probes over the shards' indexes, reach-based
// routing, per-shard score upper-bound pruning) — the tail participates
// through an append-stable snapshot (its score bounds are re-derived per
// epoch, so an append can never leave a stale bound behind).
//
// Every append and seal swaps in a fresh immutable query epoch (shardGroup)
// under a RW lock; a query snapshots the current epoch and then evaluates
// lock-free, so long scans never block ingestion. Answers are bit-identical
// to a batch Engine built over the same prefix for all five strategies,
// enforced by the differential harness and FuzzLiveShardedAppend.
//
// When an append grows the global columns into a new array, every sealed
// shard is re-pointed at it (its index rebased, not rebuilt), so exactly one
// generation of the columns stays reachable once the epochs pinned by
// in-flight queries finish.
//
// Safe for concurrent use: any number of concurrent queries, one appender.
type LiveShardedEngine struct {
	opts Options
	so   LiveShardOptions
	dims int

	// mu serializes lifecycle transitions (append, seal) against epoch
	// snapshots; queries hold it only while grabbing the current epoch.
	mu        sync.RWMutex
	global    *data.Dataset // appendable columnar storage of every record
	sealed    []timeShard   // frozen shards, ascending, over slices of global's current array
	tail      *LiveEngine   // mutable tail shard over records [tailLo, Len)
	tailLo    int
	retiredLo int    // rows [0, retiredLo) retired by retention; absent from epochs
	seq       uint64 // bumped on every append, seal, compaction and retirement; keys epoch caches

	// Lifecycle metrics (guarded by mu): seals counts freeze events,
	// sealedRows the rows frozen into static engines (each row is frozen
	// exactly once), rebuilds/indexedRows the accumulated incremental-index
	// work of retired tails plus their freeze builds (freeze work lands when
	// the background build completes; see WaitSealed).
	seals       int
	sealedRows  int
	rebuilds    int
	indexedRows int

	// freezeWG tracks in-flight background freeze builds; freezing counts
	// them (guarded by mu) so seal backpressure can bound the retired tails
	// kept alive awaiting their freeze.
	freezeWG sync.WaitGroup
	freezing int

	// Compaction and retention state (guarded by mu): compacting marks the
	// single in-flight background merge, compactWG tracks it (and its
	// cascades) for WaitCompacted, and the counters feed the bench rows.
	compacting    bool
	compactWG     sync.WaitGroup
	compactions   int
	compactedRows int
	retires       int
	retiredRows   int

	// groupMu guards the memoized query epoch; a query at an unchanged seq
	// reuses it (keeping the tail snapshot engine and its lazily built
	// auxiliary structures warm between appends), and the first query after
	// an append or seal assembles a fresh one.
	groupMu  sync.Mutex
	group    *shardGroup
	groupSeq uint64
}

// NewLiveShardedEngine returns an empty live+sharded engine for
// d-dimensional records. live configures the storage capacity hint; so
// configures the seal lifecycle.
func NewLiveShardedEngine(d int, opts Options, live LiveOptions, so LiveShardOptions) (*LiveShardedEngine, error) {
	if d < 1 {
		return nil, errors.New("core: live sharded engine needs dimensionality >= 1")
	}
	if so.SealRows < 0 || so.SealSpan < 0 {
		return nil, errors.New("core: seal thresholds must be >= 0")
	}
	if so.CompactFanout < 0 || so.RetainSpan < 0 {
		return nil, errors.New("core: compaction fanout and retain span must be >= 0")
	}
	if so.SealRows == 0 && so.SealSpan == 0 {
		so.SealRows = DefaultSealRows
	}
	global, err := data.NewAppendable(d, live.Capacity)
	if err != nil {
		return nil, err
	}
	e := &LiveShardedEngine{opts: opts, so: so, dims: d, global: global}
	e.tail = e.newTail()
	return e, nil
}

// RestoredShard carries one checkpointed sealed shard's rows for
// RestoreLiveShardedEngine: parallel time/row-major attribute columns, in
// ascending time order. Level restores the shard's LSM level (0 for a plain
// sealed shard; see LiveShardOptions.CompactFanout).
type RestoredShard struct {
	Times []int64
	Flat  []float64
	Level int
}

// RestoreLiveShardedEngine rebuilds a live+sharded engine from checkpointed
// sealed shards, in order. Each shard's rows are bulk-appended to the global
// columnar storage and frozen synchronously into a static shard — no WAL
// replay, no incremental index work — after which the engine's tail is empty
// and appends resume at the exact next row.
func RestoreLiveShardedEngine(d int, opts Options, live LiveOptions, so LiveShardOptions, shards []RestoredShard) (*LiveShardedEngine, error) {
	e, err := NewLiveShardedEngine(d, opts, live, so)
	if err != nil {
		return nil, err
	}
	// Grow once: shards frozen before a doubling would each pin a smaller
	// generation of the columns until the next growth re-pointed them.
	rows := 0
	for _, s := range shards {
		rows += len(s.Times)
	}
	e.global.Reserve(rows)
	for _, s := range shards {
		lo := e.global.Len()
		if err := e.global.AppendRows(s.Times, s.Flat); err != nil {
			return nil, fmt.Errorf("core: restoring sealed shard at row %d: %w", lo, err)
		}
		hi := e.global.Len()
		if hi == lo {
			continue
		}
		e.sealed = append(e.sealed, timeShard{lo: lo, hi: hi, eng: NewEngine(e.global.Slice(lo, hi), opts), level: s.Level})
		e.seals++
		e.sealedRows += hi - lo
		e.rebuilds++
		e.indexedRows += hi - lo
		e.tailLo = hi
		e.seq++
	}
	// A crash can land between a merge's install and its durable level swap;
	// the restored layout then still holds the constituent run, and re-planning
	// here simply redoes the merge in the background.
	e.mu.Lock()
	e.maybeCompactLocked()
	e.mu.Unlock()
	return e, nil
}

// newTail opens a fresh empty tail engine sized for one seal cycle.
func (e *LiveShardedEngine) newTail() *LiveEngine {
	cap := e.so.SealRows
	if cap <= 0 || cap > DefaultSealRows {
		cap = DefaultSealRows
	}
	tl, err := NewLiveEngine(e.dims, e.opts, LiveOptions{Capacity: cap})
	if err != nil {
		panic(err) // unreachable: dims validated at construction
	}
	return tl
}

// Append commits one record: t must exceed the last appended time and attrs
// must have exactly Dims values (copied). The record lands in the mutable
// tail shard; if it trips a seal threshold the tail is sealed — retired to
// an immutable shard and replaced by a fresh tail — before Append returns,
// with the static freeze index built in the background (see sealLocked).
// The Decision and confirmations are always zero; per-append verdicts come
// from standing queries (package sub).
func (e *LiveShardedEngine) Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := cap(e.global.Times())
	if err := e.global.AppendRow(t, attrs); err != nil {
		return monitor.Decision{}, nil, err
	}
	if cap(e.global.Times()) != c {
		e.repointSealedLocked()
	}
	if _, _, err := e.tail.Append(t, attrs); err != nil {
		// Unreachable: the tail shares the global ordering and dimension
		// rules and starts strictly after every sealed record. A failure
		// here would desynchronize tail and global storage, so fail loudly.
		panic(fmt.Sprintf("core: tail append diverged from global storage: %v", err))
	}
	e.seq++
	if e.sealDue(t) {
		e.sealLocked()
	}
	return monitor.Decision{}, nil, nil
}

// sealDue reports whether the tail has reached a seal threshold after an
// append at time t.
func (e *LiveShardedEngine) sealDue(t int64) bool {
	rows := e.global.Len() - e.tailLo
	if e.so.SealRows > 0 && rows >= e.so.SealRows {
		return true
	}
	return e.so.SealSpan > 0 && rows > 0 && t-e.global.Time(e.tailLo) >= e.so.SealSpan
}

// Seal freezes the current tail into an immutable static shard immediately,
// regardless of thresholds (no-op on an empty tail). Exposed for operational
// cutovers — e.g. sealing before a burst of historical queries — and tests.
func (e *LiveShardedEngine) Seal() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sealLocked()
}

// sealLocked seals records [tailLo, Len) and opens a fresh tail. Caller
// holds mu.
//
// The seal is two-phase so neither the appender nor queries ever wait on an
// index build. Under the lock, the retired tail's append-stable snapshot
// engine becomes the sealed shard immediately — it is final (nothing appends
// to a retired tail) and answers bit-identically to a static engine, so the
// shard is queryable the moment Append returns. The freeze build — a static
// Engine over the zero-copy global slice, the lifecycle's bounded rebuild
// unit: one build per seal, touching only the tail's rows, never the sealed
// history — runs in a background goroutine and is swapped into the shard
// slot under a short write lock when ready (epochs already holding the
// snapshot engine stay valid; the swap only upgrades future epochs to the
// tighter, denser static index). A build whose slice a growth moved away from
// meanwhile is re-pointed as it installs (see repointLocked).
func (e *LiveShardedEngine) sealLocked() {
	n := e.global.Len()
	if n == e.tailLo {
		return // empty tail: nothing to freeze (e.g. Seal right after a seal)
	}
	tail, lo := e.tail, e.tailLo
	te, _ := tail.Snapshot()
	si := len(e.sealed)
	e.sealed = append(e.sealed, timeShard{lo: lo, hi: n, eng: te})
	e.seals++
	e.sealedRows += n - lo
	e.rebuilds += tail.Rebuilds()
	e.indexedRows += tail.IndexedRows()
	sub := e.global.Slice(lo, n) // captured under mu: Slice reads mutable headers
	e.tail = e.newTail()
	e.tailLo = n
	e.seq++
	if e.so.OnSeal != nil {
		e.so.OnSeal(lo, n)
	}
	if e.freezing >= maxPendingFreezes {
		// Backpressure: seals are outpacing freeze builds, and every
		// unfrozen retired tail keeps a duplicate copy of its rows alive.
		// Degrade to the synchronous build rather than queueing unboundedly
		// — the appender pays one build, exactly the pre-async behavior.
		e.sealed[si].eng = NewEngine(sub, e.opts)
		e.rebuilds++
		e.indexedRows += n - lo
		e.seq++
	} else {
		e.freezing++
		e.freezeWG.Add(1)
		go func() {
			defer e.freezeWG.Done()
			eng := NewEngine(sub, e.opts)
			e.mu.Lock()
			// Locate the shard by its range, not a captured index: a
			// compaction or retirement may have respliced (or removed) the
			// sealed slice while the freeze built. A departed shard simply
			// discards its build — the merged shard's index covers the rows.
			if fi, ok := e.findSealedLocked(lo, n); ok {
				e.sealed[fi].eng = e.repointLocked(eng, lo, n)
				e.seq++ // invalidate the memoized epoch so new queries pick it up
			}
			e.rebuilds++
			e.indexedRows += n - lo
			e.freezing--
			e.mu.Unlock()
		}()
	}
	e.maybeRetireLocked(e.global.Time(n - 1))
	e.maybeCompactLocked()
}

// repointSealedLocked re-points every sealed shard at the storage global has
// just grown into, so exactly one generation of the columns stays reachable
// once the epochs pinned by in-flight queries finish. It is O(shards) pointer
// work: an index is rebased, never rebuilt. Caller holds mu.
func (e *LiveShardedEngine) repointSealedLocked() {
	for i := range e.sealed {
		sh := &e.sealed[i]
		sh.eng = e.repointLocked(sh.eng, sh.lo, sh.hi)
	}
	// The memoized epoch's prefix view and shards read the old array too.
	e.groupMu.Lock()
	e.group = nil
	e.groupMu.Unlock()
}

// repointLocked returns eng, an engine over global rows [lo, hi), reading the
// current global storage. An engine that already does, and a sealed tail's
// snapshot engine (which reads the tail's own storage until its freeze lands),
// come back as they are. Otherwise a fresh engine over the current slice takes
// the tree index rebased (topk.Index.Rebase) or a foreign Options.NewBlock
// block rebuilt; lazy S-Band ladders are left behind and rebuild on demand.
// Freeze and compaction builds pass through here when they install, since a
// growth may have moved global while they built. Caller holds mu.
func (e *LiveShardedEngine) repointLocked(eng *Engine, lo, hi int) *Engine {
	if _, tail := eng.fwd.idx.(*topk.View); tail {
		return eng
	}
	sub := e.global.Slice(lo, hi)
	if &eng.fwd.ds.Times()[0] == &sub.Times()[0] {
		return eng
	}
	if x, ok := eng.fwd.idx.(*topk.Index); ok {
		return newEngine(sub, x.Rebase(sub), e.opts)
	}
	return NewEngine(sub, e.opts)
}

// maxPendingFreezes bounds concurrent background freeze builds (and with
// them the retired tails whose duplicate storage stays alive until their
// freeze lands); seals beyond the bound build synchronously.
const maxPendingFreezes = 2

// WaitSealed blocks until every background freeze build kicked off by past
// seals has completed and been swapped in. Metrics (Rebuilds, IndexedRows)
// include freeze work only after the build lands, so benchmarks and tests
// call this before reading them. Callers must not invoke it concurrently
// with appends that could trigger new seals (quiesce the stream first).
func (e *LiveShardedEngine) WaitSealed() {
	e.freezeWG.Wait()
}

// snapshotEpoch returns the immutable query epoch for the current stream
// state, memoized until the next append or seal. Caller holds mu (read).
//
// The epoch is fully append-stable: sealed shards are static engines over
// prefix-stable slices, the tail joins through LiveEngine.Snapshot (a pinned
// forest view), and the dataset is a capacity-clipped prefix — so queries
// evaluate against it after releasing the lock, and ingestion never waits on
// a long scan. Per-epoch caches (the cross-shard score upper bounds) carry
// the epoch seq and regenerate rather than serve stale values if they ever
// meet a different epoch.
func (e *LiveShardedEngine) snapshotEpoch() *shardGroup {
	e.groupMu.Lock()
	defer e.groupMu.Unlock()
	if e.group != nil && e.groupSeq == e.seq {
		return e.group
	}
	n := e.global.Len()
	if n == 0 {
		return nil
	}
	shards := make([]timeShard, 0, len(e.sealed)+1)
	shards = append(shards, e.sealed...)
	if n > e.tailLo {
		// Appends are locked out while we hold mu (read), so the tail
		// snapshot covers exactly records [tailLo, n).
		te, tn := e.tail.Snapshot()
		shards = append(shards, timeShard{lo: e.tailLo, hi: e.tailLo + tn, eng: te})
	}
	if len(shards) == 0 {
		// Retention can retire every sealed shard while the tail is empty;
		// the engine then answers like an empty one until the next append.
		return nil
	}
	e.group = &shardGroup{ds: e.global.Prefix(n), opts: e.opts, shards: shards, seq: e.seq}
	e.groupSeq = e.seq
	return e.group
}

// epoch grabs the current query epoch under the read lock (nil when empty).
func (e *LiveShardedEngine) epoch() *shardGroup {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.snapshotEpoch()
}

// EpochSeq returns the current query-epoch sequence number: it changes on
// every append, seal and background freeze swap, so results computed at equal
// seqs are interchangeable. Whole-result caches key entries by it to get
// epoch-based invalidation for free.
func (e *LiveShardedEngine) EpochSeq() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seq
}

// Len returns the number of records appended so far.
func (e *LiveShardedEngine) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.global.Len()
}

// NumShards returns the current shard count: sealed shards plus the tail
// when it holds records.
func (e *LiveShardedEngine) NumShards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := len(e.sealed)
	if e.global.Len() > e.tailLo {
		n++
	}
	return n
}

// TailLen returns the number of records in the mutable tail shard.
func (e *LiveShardedEngine) TailLen() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.global.Len() - e.tailLo
}

// Seals returns the number of freeze events so far.
func (e *LiveShardedEngine) Seals() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.seals
}

// SealedRows returns the total rows frozen into static shards; every row is
// frozen at most once, so SealedRows/Len <= 1 is the freeze amortization.
func (e *LiveShardedEngine) SealedRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sealedRows
}

// Rebuilds returns the total index (re)builds across the lifecycle: the
// incremental chunk-tree builds of every tail plus one freeze build per seal.
func (e *LiveShardedEngine) Rebuilds() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.rebuilds + e.tail.Rebuilds()
}

// IndexedRows returns the total rows (re)indexed across the lifecycle —
// incremental tail index work plus freeze builds. IndexedRows/Len is the
// end-to-end amortization constant: O(log SealRows) + 1, bounded regardless
// of stream length because sealed history is never re-indexed.
func (e *LiveShardedEngine) IndexedRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.indexedRows + e.tail.IndexedRows()
}

// Shards describes the current shards (sealed plus non-empty tail) in
// ascending time order.
func (e *LiveShardedEngine) Shards() []ShardInfo {
	g := e.epoch()
	if g == nil {
		return nil
	}
	return g.infos()
}

// Dataset returns a stable snapshot view of the records appended so far.
func (e *LiveShardedEngine) Dataset() *data.Dataset {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.global.Prefix(e.global.Len())
}

// DurableTopK answers DurTop(k, I, tau) over the records appended so far, as
// one span over the sealed shards and the tail; the answer is identical
// to Engine.DurableTopK over a batch engine built on the same prefix. An
// empty engine returns an empty result (after parameter validation), as does
// a query whose interval the router proves no shard can answer.
func (e *LiveShardedEngine) DurableTopK(q Query) (*Result, error) {
	g := e.epoch()
	if g == nil {
		if err := q.validate(e.dims); err != nil {
			return nil, err
		}
		return &Result{Stats: Stats{Algorithm: q.Algorithm}}, nil
	}
	return g.DurableTopK(q)
}

// Explain returns the planner's assessment of q over the current prefix.
func (e *LiveShardedEngine) Explain(q Query) (planner.Plan, error) {
	g := e.epoch()
	if g == nil {
		return planner.Plan{}, errEmptyLive
	}
	return g.Explain(q)
}

// DurabilityProfile computes every retained record's maximum durability (see
// Engine.DurabilityProfile; the sweep needs no index, so the shard lifecycle
// does not change it). With retention enabled the sweep covers the retained
// suffix only — matching what queries can see — and reported IDs stay global.
func (e *LiveShardedEngine) DurabilityProfile(k int, s score.Scorer, anchor Anchor) ([]DurabilityRecord, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if s == nil {
		return nil, ErrNoScorer
	}
	if s.Dims() != e.dims {
		return nil, ErrDims
	}
	e.mu.RLock()
	lo, n := e.retiredLo, e.global.Len()
	var suffix *data.Dataset
	if n > lo {
		suffix = e.global.Slice(lo, n) // captured under mu: Slice reads mutable headers
	}
	e.mu.RUnlock()
	if suffix == nil {
		return nil, errEmptyLive
	}
	out := durabilitySweep(suffix, k, s, anchor == LookAhead)
	for i := range out {
		out[i].ID += lo
	}
	return out, nil
}

// MostDurable reports the n records with the largest maximum durability over
// the current prefix (see Engine.MostDurable).
func (e *LiveShardedEngine) MostDurable(k int, s score.Scorer, anchor Anchor, n int) ([]DurabilityRecord, error) {
	profile, err := e.DurabilityProfile(k, s, anchor)
	if err != nil {
		return nil, err
	}
	return mostDurable(profile, n), nil
}

var _ Querier = (*LiveShardedEngine)(nil)
