package core

import (
	"errors"
	"sync"

	"repro/internal/data"
	"repro/internal/monitor"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/topk"
)

// LiveOptions configures a LiveEngine beyond the shared engine Options.
type LiveOptions struct {
	// Capacity pre-sizes the columnar storage for that many records; 0 is
	// fine (growth is amortized either way).
	Capacity int
}

// LiveEngine answers durable top-k queries over a still-growing dataset: the
// streaming counterpart of Engine. Records arrive one at a time through
// Append; queries at any point observe exactly the records appended so far
// and return precisely what a batch Engine built over that prefix would —
// the incremental index is the logarithmic-merge forest of package topk,
// whose probes run the same pooled-Scratch bulk-scoring path as the static
// tree, so interleaved append/query workloads stay on the hot path with no
// full index rebuilds on the forward (look-back) direction.
//
// Auxiliary structures remain per-prefix: the time-reversed view
// (LookAhead/General anchors) and the skyband ladders (S-Band) are built
// lazily by the snapshot engine and are only reused until the next append.
// An append-then-LookAhead-query loop therefore rebuilds the reversed index
// each iteration — run such workloads as standing queries (package sub: its
// look-ahead confirmations are O(log w) per arrival) or batch queries between
// appends; making these structures incremental is an open roadmap item.
//
// Appends are serialized against queries with a RW lock: any number of
// concurrent queries, one writer.
type LiveEngine struct {
	opts Options
	mu   sync.RWMutex

	forest *topk.Forest

	// engMu guards the memoized per-prefix engine; a query at an unchanged
	// length reuses it (keeping lazily built reversed views and skyband
	// ladders warm between appends), and the first query after an append
	// swaps in a fresh one.
	engMu  sync.Mutex
	eng    *Engine
	engLen int
}

// NewLiveEngine returns an empty live engine for d-dimensional records.
func NewLiveEngine(d int, opts Options, live LiveOptions) (*LiveEngine, error) {
	if d < 1 {
		return nil, errors.New("core: live engine needs dimensionality >= 1")
	}
	le := &LiveEngine{opts: opts, forest: topk.NewForest(d, opts.Index)}
	le.forest.Dataset().Reserve(live.Capacity)
	return le, nil
}

// Len returns the number of records appended so far.
func (le *LiveEngine) Len() int {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.forest.Len()
}

// Rebuilds returns the number of chunk-tree (re)builds performed by the
// incremental index, and IndexedRows the total rows those builds touched;
// IndexedRows/Len is the observed rebuild amortization constant.
func (le *LiveEngine) Rebuilds() int {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.forest.Rebuilds()
}

// IndexedRows returns the total rows (re)indexed across chunk-tree builds.
func (le *LiveEngine) IndexedRows() int {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.forest.IndexedRows()
}

// EpochSeq returns the current query-epoch sequence number. A live engine's
// query state is fully keyed by its prefix length (appends only extend it),
// so the length is the epoch; results computed at equal seqs are
// interchangeable, which is what whole-result caches key entries by.
func (le *LiveEngine) EpochSeq() uint64 {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return uint64(le.forest.Len())
}

// Append commits one record: t must exceed the last appended time and attrs
// must have exactly Dims values (copied). The Decision and confirmations are
// always zero; per-append verdicts come from standing queries (package sub).
func (le *LiveEngine) Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error) {
	le.mu.Lock()
	defer le.mu.Unlock()
	return monitor.Decision{}, nil, le.forest.Append(t, attrs)
}

// Dataset returns a stable snapshot view of the records appended so far.
func (le *LiveEngine) Dataset() *data.Dataset {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.forest.Dataset().Prefix(le.forest.Len())
}

// snapshotEngine returns the engine over the current n-record prefix,
// memoized until the next append. The forward building block is an
// append-stable prefix view of the live forest (topk.Forest.Snapshot — no
// rebuild, the chunk trees are shared); auxiliary structures a strategy may
// need — the reversed view for look-ahead windows, skyband ladders — are
// built lazily by the engine exactly as in the batch path.
//
// Callers hold le.mu (read), which keeps n current for the duration of their
// evaluation. The pinned view additionally makes the returned engine sound
// on its own: it keeps answering exactly over records [0, n) even if it
// outlives the next append, closing the torn-prefix hazard a raw forest
// block would have (the forest's time-window probes would otherwise see
// records appended after the snapshot). The live+sharded lifecycle relies on
// this to evaluate against a frozen tail epoch after releasing its lock.
func (le *LiveEngine) snapshotEngine(n int) *Engine {
	le.engMu.Lock()
	defer le.engMu.Unlock()
	if le.eng != nil && le.engLen == n {
		return le.eng
	}
	view := le.forest.Snapshot(n)
	snap := view.Dataset()
	opts := le.opts
	inner := le.opts // what non-forward views (the reversed mirror) build with
	opts.NewBlock = func(d *data.Dataset) Block {
		if d == snap {
			return view
		}
		return buildBlock(d, inner)
	}
	le.eng = NewEngine(snap, opts)
	le.engLen = n
	return le.eng
}

// Snapshot returns the memoized engine over the prefix of records appended
// so far, together with that prefix's length, or (nil, 0) while the live
// engine is empty. The engine is append-stable: built over prefix-pinned
// storage and a pinned forest view, it keeps answering exactly over those n
// records no matter how far the stream grows afterwards. The live+sharded
// engine snapshots its mutable tail through this to assemble frozen query
// epochs.
func (le *LiveEngine) Snapshot() (*Engine, int) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	n := le.forest.Len()
	if n == 0 {
		return nil, 0
	}
	return le.snapshotEngine(n), n
}

// errEmptyLive rejects operations that need at least one record.
var errEmptyLive = errors.New("core: live engine has no records yet")

// DurableTopK answers DurTop(k, I, tau) over the records appended so far; the
// answer is identical to Engine.DurableTopK over a batch engine built on the
// same prefix. An empty live engine returns an empty result (after parameter
// validation against the configured dimensionality).
func (le *LiveEngine) DurableTopK(q Query) (*Result, error) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	n := le.forest.Len()
	if n == 0 {
		if err := q.validate(le.forest.Dataset().Dims()); err != nil {
			return nil, err
		}
		return &Result{Stats: Stats{Algorithm: q.Algorithm}}, nil
	}
	return le.snapshotEngine(n).DurableTopK(q)
}

// TopK answers the plain range top-k query over the records appended so far.
func (le *LiveEngine) TopK(s score.Scorer, k int, t1, t2 int64) []topk.Item {
	le.mu.RLock()
	defer le.mu.RUnlock()
	return le.forest.Query(s, k, t1, t2)
}

// Explain returns the planner's assessment of q over the current prefix.
func (le *LiveEngine) Explain(q Query) (planner.Plan, error) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	n := le.forest.Len()
	if n == 0 {
		return planner.Plan{}, errEmptyLive
	}
	return le.snapshotEngine(n).Explain(q)
}

// MostDurable reports the n records with the largest maximum durability over
// the current prefix (see Engine.MostDurable).
func (le *LiveEngine) MostDurable(k int, s score.Scorer, anchor Anchor, n int) ([]DurabilityRecord, error) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	if le.forest.Len() == 0 {
		return nil, errEmptyLive
	}
	return le.snapshotEngine(le.forest.Len()).MostDurable(k, s, anchor, n)
}

// DurabilityProfile computes every record's maximum durability over the
// current prefix (see Engine.DurabilityProfile).
func (le *LiveEngine) DurabilityProfile(k int, s score.Scorer, anchor Anchor) ([]DurabilityRecord, error) {
	le.mu.RLock()
	defer le.mu.RUnlock()
	if le.forest.Len() == 0 {
		return nil, errEmptyLive
	}
	return le.snapshotEngine(le.forest.Len()).DurabilityProfile(k, s, anchor)
}

var _ Querier = (*LiveEngine)(nil)
