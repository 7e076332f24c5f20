package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/skyband"
	"repro/internal/topk"
)

// Block is the range top-k building block of §II that an Engine holds: the
// tree index of package topk (*topk.Index), or a live tail's pinned forest
// view (*topk.View), and nothing else. It carries exactly the methods called
// through it; evaluations continue one merge across the shards' blocks through
// Engine.mergeRange, which switches on these two concrete types.
type Block interface {
	// Query answers Q(s, k, [t1, t2]) in (score desc, time desc) order.
	Query(s score.Scorer, k int, t1, t2 int64) []topk.Item
	// UpperBoundAll bounds the scorer over every record the block indexes.
	UpperBoundAll(s score.Scorer) float64
}

// Options configures an Engine.
type Options struct {
	// Index configures the tree index, the range top-k building block.
	Index topk.Options
	// SkybandScanBudget caps the per-record dominator scan when building
	// S-Band's durable k-skyband index; 0 computes exact durations. An
	// exhausted budget over-approximates a record's duration, which keeps
	// the candidate set a superset of the answer (never incorrect, only
	// less selective).
	SkybandScanBudget int
	// SkybandBlockSize tunes the dominator scanner; 0 selects the default.
	SkybandBlockSize int
}

// Engine answers durable top-k queries over one dataset. The range top-k
// index is built eagerly and serves both window directions: a look-ahead
// query probes it mirrored. The durable k-skyband ladders (for S-Band) are
// built lazily on first use. The engine is the one shard of its own
// shardGroup, and every query runs there, as on a ShardedEngine. Safe for
// concurrent queries.
type Engine struct {
	opts Options
	ds   *data.Dataset
	idx  Block // a *topk.Index, or a live tail's *topk.View

	self  [1]timeShard // the engine's whole dataset, as its group's one shard
	group shardGroup

	mu     sync.Mutex // serializes the lazy ladder builds
	ladder map[Anchor]*skyband.Ladder
}

// counter tags for instrumented building-block calls.
type queryKind int

const (
	kindCheck queryKind = iota
	kindFind
	kindMaint
)

// probe carries the reusable working memory of one DurableTopK evaluation:
// a single topk.Scratch shared by every building-block call of the query
// (the strategy's own probes and the WithDurations binary searches), a
// result buffer for transient probes, the per-query arena the
// score-prioritized strategies carve their retained state from, the span's
// dataset header and building block, and the shards' score upper bounds the
// duration searches prune with (filled on first use: one evaluation has one
// scorer). Probes are pooled, so all of it is reused across queries and the
// evaluation runs with zero steady-state allocations.
type probe struct {
	sc  *topk.Scratch
	buf []topk.Item
	a   arena

	span data.Dataset
	blk  spanBlock
	ub   []float64
}

var probePool = sync.Pool{New: func() interface{} { return new(probe) }}

// newProbe checks out a probe for one evaluation — one query, hence one
// scorer — and opens the scratch's memo session for it: node bounds and leaf
// scores computed by one building-block call serve every later one.
func newProbe() *probe {
	pr := probePool.Get().(*probe)
	pr.sc = topk.GetScratch()
	pr.sc.BeginMemo()
	return pr
}

// release returns pr to the pool. The span's header and block are cleared,
// so a pooled probe pins no dataset or shard.
func (pr *probe) release() {
	topk.PutScratch(pr.sc)
	pr.sc = nil
	pr.span, pr.blk, pr.ub = data.Dataset{}, spanBlock{}, pr.ub[:0]
	probePool.Put(pr)
}

func (st *Stats) count(kind queryKind) {
	switch kind {
	case kindCheck:
		st.CheckQueries++
	case kindFind:
		st.FindQueries++
	default:
		st.MaintQueries++
	}
}

// indexBuilds counts the tree indexes NewEngine has built, process-wide; the
// cost-contract tests read it as a delta.
var indexBuilds atomic.Int64

// NewEngine builds the tree index over ds and returns a ready engine.
func NewEngine(ds *data.Dataset, opts Options) *Engine {
	indexBuilds.Add(1)
	return newEngine(ds, topk.Build(ds, opts.Index), opts)
}

// newEngine returns an engine whose building block over ds is blk.
func newEngine(ds *data.Dataset, blk Block, opts Options) *Engine {
	e := &Engine{
		opts:   opts,
		ds:     ds,
		idx:    blk,
		ladder: make(map[Anchor]*skyband.Ladder),
	}
	e.self[0] = timeShard{lo: 0, hi: ds.Len(), eng: e}
	e.group = shardGroup{ds: ds, shards: e.self[:], own: e}
	return e
}

// normalizedAnchor collapses end-anchored General queries onto the one-sided
// anchor they evaluate as (the ladder cache is keyed by that).
func normalizedAnchor(q *Query) Anchor {
	if q.Anchor == General && q.Lead == q.Tau && q.Tau > 0 {
		return LookAhead
	}
	return q.Anchor
}

// queryPlannerInputs characterizes q over ds for the cost model. sbandReady
// says a skyband ladder for q's anchor is already built, which discounts
// S-Band's cold-build cost; only an engine's own group has ladders.
func queryPlannerInputs(ds *data.Dataset, q *Query, sbandReady bool) planner.Inputs {
	lo, hi := ds.IndexRange(q.Start, q.End)
	return planner.Inputs{
		N:          ds.Len(),
		Dims:       ds.Dims(),
		NI:         hi - lo,
		K:          q.K,
		Tau:        q.Tau,
		Window:     q.End - q.Start,
		Monotone:   score.IsMonotone(q.Scorer),
		MidAnchor:  q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau,
		SBandReady: sbandReady,
	}
}

// ladderBuilt reports whether a durable k-skyband ladder already exists for
// the anchor direction (the planner discounts S-Band's cold-build cost).
func (e *Engine) ladderBuilt(anchor Anchor) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.ladder[anchor]
	return ok
}

// strategyAlgorithm maps the planner's verdict onto an Algorithm.
func strategyAlgorithm(s planner.Strategy) Algorithm {
	switch s {
	case planner.TBase:
		return TBase
	case planner.THop:
		return THop
	case planner.SBase:
		return SBase
	case planner.SBand:
		return SBand
	default:
		return SHop
	}
}

// Explain returns the planner's cost-based assessment of q — the chosen
// strategy, the Lemma 4 / Lemma 5 size estimates, and per-strategy cost
// estimates — without evaluating the query. A non-Auto q.Algorithm does not
// change the assessment; DurableTopK would simply bypass it.
func (e *Engine) Explain(q Query) (planner.Plan, error) { return e.group.Explain(q) }

// checkAlgorithm enforces the strategy constraints after Auto resolution: S-Band needs a monotone scorer, and
// truly mid-anchored windows (0 < Lead < Tau) support neither the
// anchor-specific variants nor duration reporting.
func checkAlgorithm(q *Query, alg Algorithm) error {
	if alg == SBand && !score.IsMonotone(q.Scorer) {
		return ErrNotMonotone
	}
	if q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau {
		if alg == TBase || alg == SBand {
			return fmt.Errorf("%w: %v", ErrAnchorUnsupp, alg)
		}
		if q.WithDurations {
			return fmt.Errorf("%w: WithDurations", ErrAnchorUnsupp)
		}
	}
	return nil
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *data.Dataset { return e.ds }

// Index exposes the building block (for direct range top-k queries, e.g. the
// sliding/tumbling comparison utilities).
func (e *Engine) Index() Block { return e.idx }

// skyLadder returns the lazily built durable k-skyband ladder for the given
// anchor. The look-ahead ladder ranks a time-mirrored copy of the dataset,
// which it owns: S-Band's ladder is an offline index by design (§IV-B), built
// only by PrepareSkyband or a pinned S-Band query, and its candidate ids
// address that copy.
func (e *Engine) skyLadder(anchor Anchor) *skyband.Ladder {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ld, ok := e.ladder[anchor]; ok {
		return ld
	}
	ds := e.ds
	if anchor == LookAhead {
		ds = ds.ReversedInto(nil, nil)
	}
	ld := skyband.NewLadder(ds, e.opts.SkybandScanBudget, e.opts.SkybandBlockSize)
	e.ladder[anchor] = ld
	return ld
}

// PrepareSkyband eagerly materializes the durable k-skyband ladder level
// serving queries with parameter k under the given anchor. S-Band treats the
// ladder as an offline index (§IV-B); benchmarks call this before timing so
// query latencies exclude index construction.
func (e *Engine) PrepareSkyband(k int, anchor Anchor) {
	e.skyLadder(anchor).CandidateCount(k, 0, -1, 0) // empty interval; forces the level build
}

// TopK answers the plain (non-durable) range top-k query Q(s, k, [t1, t2]).
func (e *Engine) TopK(s score.Scorer, k int, t1, t2 int64) []topk.Item {
	return e.idx.Query(s, k, t1, t2)
}

// evalIDs runs strategy alg for the validated query q over the span block v
// on pr's working memory and returns the answer ids in v's id space,
// ascending. A look-ahead query runs the look-back machinery over a
// time-mirrored v (window [p.t, p.t+tau] becomes [q.t-tau, q.t] for the
// mirrored record q); its ids ascend in mirrored time, i.e. descend in
// original time. S-Band reads ld, a skyband ladder over v's rows (nil for the
// other strategies). The ids may live in pr's arena (valid until its next
// query).
func evalIDs(pr *probe, v *spanBlock, q *Query, alg Algorithm, st *Stats, ld *skyband.Ladder) []int32 {
	// Normalize the anchor: end-anchored General queries collapse onto the
	// specialized LookBack / LookAhead paths.
	runQ := *q
	switch {
	case normalizedAnchor(q) == LookAhead:
		runQ.Start, runQ.End = -q.End, -q.Start
		runQ.Anchor, runQ.Lead = LookBack, 0
	case q.Anchor == General && q.Lead == 0:
		runQ.Anchor = LookBack
	case q.Anchor == General:
		// Mid-anchored window: only the anchor-generic variants apply
		// (already enforced by checkAlgorithm).
	}
	general := runQ.Anchor == General

	switch alg {
	case TBase:
		return runTBase(v, pr, runQ, st)
	case THop:
		return runTHopAnchored(v, pr, runQ, st)
	case SBase:
		return runSBaseAnchored(v, runQ, st)
	case SBand:
		return runSBand(v, pr, ld, runQ, st)
	default:
		if general {
			return runSHopAnchored(v, pr, runQ, st)
		}
		return runSHop(v, pr, runQ, st)
	}
}

// DurableTopK answers DurTop(k, I, tau) with the strategy selected by the
// query, returning the tau-durable records in ascending time order together
// with evaluation statistics.
func (e *Engine) DurableTopK(q Query) (*Result, error) { return e.group.DurableTopK(q) }

// MaxDuration returns the largest tau for which record id stays in the
// top-k of its anchored window, and whether the search was truncated by the
// start (LookBack) or end (LookAhead) of recorded history. It returns
// (-1, false), the "not computed" of ResultRecord.MaxDuration, for k < 1, a
// nil scorer or one of another dimensionality, and an id outside [0, Len).
func (e *Engine) MaxDuration(id, k int, s score.Scorer, anchor Anchor) (int64, bool) {
	if k < 1 || s == nil || s.Dims() != e.ds.Dims() || id < 0 || id >= e.ds.Len() {
		return -1, false
	}
	var st Stats
	pr := newProbe()
	defer pr.release()
	return e.group.maxDuration(pr, &st, s, k, id, anchor == LookAhead)
}
