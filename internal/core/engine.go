package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/skyband"
	"repro/internal/topk"
)

// Block is the pluggable range top-k building block of §II: any structure
// that answers Q(s, k, W) over a closed time window (Query) or a half-open
// record index range (QueryRange) with results in (score desc, time desc)
// order. The default is the tree index of package topk; package rmq provides
// an alternative for fixed-scorer workloads.
type Block interface {
	Query(s score.Scorer, k int, t1, t2 int64) []topk.Item
	QueryRange(s score.Scorer, k int, lo, hi int) []topk.Item
}

// ScratchBlock is an optional Block capability: probes that run on
// caller-provided working memory (topk.Scratch) and append results into a
// reusable buffer. One durable top-k evaluation issues hundreds of
// building-block probes; the engine threads a single Scratch plus one result
// buffer through all of them, making the probe hot path allocation-free.
// Both *topk.Index and *rmq.Block implement it.
type ScratchBlock interface {
	QueryInto(s score.Scorer, k int, t1, t2 int64, sc *topk.Scratch, dst []topk.Item) []topk.Item
	QueryRangeInto(s score.Scorer, k int, lo, hi int, sc *topk.Scratch, dst []topk.Item) []topk.Item
}

// Options configures an Engine.
type Options struct {
	// Index configures the default range top-k building block.
	Index topk.Options
	// NewBlock, when set, replaces the default tree index: it is invoked
	// once per dataset direction (forward, and lazily reversed) and must
	// return a Block honouring the (score desc, time desc) contract.
	NewBlock func(ds *data.Dataset) Block
	// SkybandScanBudget caps the per-record dominator scan when building
	// S-Band's durable k-skyband index; 0 computes exact durations. An
	// exhausted budget over-approximates a record's duration, which keeps
	// the candidate set a superset of the answer (never incorrect, only
	// less selective).
	SkybandScanBudget int
	// SkybandBlockSize tunes the dominator scanner; 0 selects the default.
	SkybandBlockSize int
}

// Engine answers durable top-k queries over one dataset. The forward range
// top-k index is built eagerly; the reversed view (for look-ahead windows)
// and the durable k-skyband ladders (for S-Band) are built lazily on first
// use. Safe for concurrent queries.
type Engine struct {
	opts Options
	fwd  view

	// rev is published once and read lock-free: a cross-shard span probe
	// resolves every overlapped shard's mirrored view on its hot path.
	rev atomic.Pointer[view]

	mu     sync.Mutex // serializes the lazy builds (rev, ladder)
	ladder map[Anchor]*skyband.Ladder
}

// view bundles a dataset direction with its building block.
type view struct {
	ds  *data.Dataset
	idx Block
	// into is idx's optional scratch-probe capability, nil when absent.
	into ScratchBlock
}

func newView(ds *data.Dataset, idx Block) view {
	v := view{ds: ds, idx: idx}
	v.into, _ = idx.(ScratchBlock)
	return v
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
// result buffer for transient probes, and the per-query arena the
// score-prioritized strategies carve their retained state from. Probes are
// pooled, so arena and buffer storage is reused across queries and the
// strategy hot paths run with zero steady-state allocations.
type probe struct {
	sc  *topk.Scratch
	buf []topk.Item
	a   arena
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

func (pr *probe) release() {
	topk.PutScratch(pr.sc)
	pr.sc = nil
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

// topk runs one instrumented building-block query over the closed window
// [t1, t2]. The result is transient: it lives in pr's buffer and is
// overwritten by the next transient probe, so callers must finish consuming
// it first (use topkKeep to retain a result).
func (v *view) topk(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, t1, t2 int64) []topk.Item {
	st.count(kind)
	if v.into != nil {
		pr.buf = v.into.QueryInto(s, k, t1, t2, pr.sc, pr.buf)
		return pr.buf
	}
	return v.idx.Query(s, k, t1, t2)
}

// topkKeep is topk for callers that retain the result beyond the next probe
// (T-Base's sliding top-k set): the result is written over dst — a buffer the
// caller owns, nil to allocate — and only the probe's internal working memory
// is shared.
func (v *view) topkKeep(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, t1, t2 int64, dst []topk.Item) []topk.Item {
	st.count(kind)
	if v.into != nil {
		return v.into.QueryInto(s, k, t1, t2, pr.sc, dst)
	}
	return v.idx.Query(s, k, t1, t2)
}

// topkRange is the transient probe over a half-open record index range.
func (v *view) topkRange(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, lo, hi int) []topk.Item {
	st.count(kind)
	if v.into != nil {
		pr.buf = v.into.QueryRangeInto(s, k, lo, hi, pr.sc, pr.buf)
		return pr.buf
	}
	return v.idx.QueryRange(s, k, lo, hi)
}

// topkRangeKeep is topkRange with a freshly allocated, retainable result.
func (v *view) topkRangeKeep(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, lo, hi int) []topk.Item {
	st.count(kind)
	if v.into != nil {
		return v.into.QueryRangeInto(s, k, lo, hi, pr.sc, nil)
	}
	return v.idx.QueryRange(s, k, lo, hi)
}

// member reports whether record id (arriving at t2) is in the top-k of
// [t1, t2] given that window's top-k items.
func (v *view) member(s score.Scorer, k int, items []topk.Item, id int32) bool {
	if len(items) < k {
		return true
	}
	return s.Score(v.ds.Attrs(int(id))) >= items[k-1].Score
}

// NewEngine builds the forward building block over ds and returns a ready
// engine.
func NewEngine(ds *data.Dataset, opts Options) *Engine {
	return &Engine{
		opts:   opts,
		fwd:    newView(ds, buildBlock(ds, opts)),
		ladder: make(map[Anchor]*skyband.Ladder),
	}
}

// plannerInputs characterizes q for the cost model.
func (e *Engine) plannerInputs(q *Query) planner.Inputs {
	return queryPlannerInputs(e.fwd.ds, q, e.ladderBuilt(normalizedAnchor(q)))
}

// normalizedAnchor collapses end-anchored General queries onto the one-sided
// anchor they evaluate as (the ladder cache is keyed by that).
func normalizedAnchor(q *Query) Anchor {
	if q.Anchor == General && q.Lead == q.Tau && q.Tau > 0 {
		return LookAhead
	}
	return q.Anchor
}

// queryPlannerInputs characterizes q over ds for the cost model; shared by
// Engine and ShardedEngine so the Auto strategy choice cannot drift between
// the two.
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

// resolveAlgorithm picks the concrete strategy for Auto queries by running
// the cost model of package planner over the query and dataset shape — the
// paper's §VI guidance (hops in general, S-Band only for cheap monotone
// low-dimensional candidate sets, baselines for tiny unselective queries)
// made executable.
func (e *Engine) resolveAlgorithm(q *Query) Algorithm {
	if q.Algorithm != Auto {
		return q.Algorithm
	}
	return strategyAlgorithm(e.plan(q).Chosen)
}

// plan runs the cost model for q.
func (e *Engine) plan(q *Query) planner.Plan {
	return planner.Choose(e.plannerInputs(q))
}

// Explain returns the planner's cost-based assessment of q — the chosen
// strategy, the Lemma 4 / Lemma 5 size estimates, and per-strategy cost
// estimates — without evaluating the query. A non-Auto q.Algorithm does not
// change the assessment; DurableTopK would simply bypass it.
func (e *Engine) Explain(q Query) (planner.Plan, error) {
	if err := q.validate(e.fwd.ds.Dims()); err != nil {
		return planner.Plan{}, err
	}
	return e.plan(&q), nil
}

// checkAlgorithm enforces the strategy constraints shared by Engine and
// ShardedEngine after Auto resolution: S-Band needs a monotone scorer, and
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

func buildBlock(ds *data.Dataset, opts Options) Block {
	if opts.NewBlock != nil {
		return opts.NewBlock(ds)
	}
	return topk.Build(ds, opts.Index)
}

// Dataset returns the engine's dataset.
func (e *Engine) Dataset() *data.Dataset { return e.fwd.ds }

// Index exposes the forward building block (for direct range top-k queries,
// e.g. the sliding/tumbling comparison utilities).
func (e *Engine) Index() Block { return e.fwd.idx }

// reversed returns the lazily built time-mirrored view.
func (e *Engine) reversed() *view {
	if rv := e.rev.Load(); rv != nil {
		return rv
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if rv := e.rev.Load(); rv != nil {
		return rv
	}
	rds := e.fwd.ds.Reversed()
	rv := newView(rds, buildBlock(rds, e.opts))
	e.rev.Store(&rv)
	return &rv
}

// skyLadder returns the lazily built durable k-skyband ladder for the view
// direction used by the given anchor.
func (e *Engine) skyLadder(anchor Anchor, v *view) *skyband.Ladder {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ld, ok := e.ladder[anchor]; ok {
		return ld
	}
	ld := skyband.NewLadder(v.ds, e.opts.SkybandScanBudget, e.opts.SkybandBlockSize)
	e.ladder[anchor] = ld
	return ld
}

// PrepareSkyband eagerly materializes the durable k-skyband ladder level
// serving queries with parameter k under the given anchor. S-Band treats the
// ladder as an offline index (§IV-B); benchmarks call this before timing so
// query latencies exclude index construction.
func (e *Engine) PrepareSkyband(k int, anchor Anchor) {
	v := &e.fwd
	if anchor == LookAhead {
		v = e.reversed()
	}
	e.skyLadder(anchor, v).CandidateCount(k, 0, -1, 0) // empty interval; forces the level build
}

// TopK answers the plain (non-durable) range top-k query Q(s, k, [t1, t2]).
func (e *Engine) TopK(s score.Scorer, k int, t1, t2 int64) []topk.Item {
	return e.fwd.idx.Query(s, k, t1, t2)
}

// evalIDs runs strategy alg for the validated query q on pr's working memory
// and returns the view it ran over with the answer ids in that view's id
// space, ascending. When mirror is set the view is the time-reversed one:
// id i there is record Len-1-i of the dataset, and ascending ids descend in
// original time. The ids may live in pr's arena (valid until its next query).
func (e *Engine) evalIDs(pr *probe, q *Query, alg Algorithm, st *Stats) (v *view, ids []int32, mirror bool) {
	// Normalize the anchor: end-anchored General queries collapse onto the
	// specialized LookBack / LookAhead paths; mirrored queries run the
	// look-back machinery over the time-reversed view (window [p.t, p.t+tau]
	// becomes [q.t-tau, q.t] for the mirrored record q).
	v = &e.fwd
	runQ := *q
	mirror = normalizedAnchor(q) == LookAhead
	skyAnchor := q.Anchor
	switch {
	case mirror:
		v = e.reversed()
		runQ.Start, runQ.End = -q.End, -q.Start
		runQ.Anchor, runQ.Lead = LookBack, 0
		skyAnchor = LookAhead
	case q.Anchor == General && q.Lead == 0:
		runQ.Anchor = LookBack
		skyAnchor = LookBack
	case q.Anchor == General:
		// Mid-anchored window: only the anchor-generic variants apply
		// (already enforced by checkAlgorithm).
	}
	general := runQ.Anchor == General

	switch alg {
	case TBase:
		ids = runTBase(v, pr, runQ, st)
	case THop:
		if general {
			ids = runTHopAnchored(v, pr, runQ, st)
		} else {
			ids = runTHop(v, pr, runQ, st)
		}
	case SBase:
		if general {
			ids = runSBaseAnchored(v, runQ, st)
		} else {
			ids = runSBase(v, runQ, st)
		}
	case SBand:
		ids = runSBand(v, pr, e.skyLadder(skyAnchor, v), runQ, st)
	case SHop:
		if general {
			ids = runSHopAnchored(v, pr, runQ, st)
		} else {
			ids = runSHop(v, pr, runQ, st)
		}
	}
	return v, ids, mirror
}

// DurableTopK answers DurTop(k, I, tau) with the strategy selected by the
// query, returning the tau-durable records in ascending time order together
// with evaluation statistics.
func (e *Engine) DurableTopK(q Query) (*Result, error) {
	if err := q.validate(e.fwd.ds.Dims()); err != nil {
		return nil, err
	}
	alg := e.resolveAlgorithm(&q)
	if err := checkAlgorithm(&q, alg); err != nil {
		return nil, err
	}

	// One probe's worth of working memory serves the whole evaluation: every
	// building-block call below — strategy probes and duration searches —
	// shares its scratch buffers.
	pr := newProbe()
	defer pr.release()

	st := Stats{Algorithm: alg}
	startAt := time.Now()
	v, ids, mirror := e.evalIDs(pr, &q, alg, &st)
	st.Elapsed = time.Since(startAt)

	res := &Result{Stats: st}
	res.Records = make([]ResultRecord, 0, len(ids))
	n := e.fwd.ds.Len()
	for _, id := range ids {
		origID := int(id)
		if mirror {
			origID = n - 1 - origID
		}
		res.Records = append(res.Records, ResultRecord{
			ID:          origID,
			Time:        e.fwd.ds.Time(origID),
			Score:       q.Scorer.Score(e.fwd.ds.Attrs(origID)),
			MaxDuration: -1,
		})
	}
	if mirror {
		// ids ascend in mirrored time, i.e. descend in original time.
		for i, j := 0, len(res.Records)-1; i < j; i, j = i+1, j-1 {
			res.Records[i], res.Records[j] = res.Records[j], res.Records[i]
		}
	}
	if q.WithDurations {
		for i := range res.Records {
			mirrored := int32(res.Records[i].ID)
			if mirror {
				mirrored = int32(n - 1 - res.Records[i].ID)
			}
			dur, full := maxDuration(v, pr, &st, q.Scorer, q.K, mirrored)
			res.Records[i].MaxDuration = dur
			res.Records[i].FullHistory = full
		}
	}
	return res, nil
}

// MaxDuration returns the largest tau for which record id stays in the
// top-k of its anchored window, and whether the search was truncated by the
// start (LookBack) or end (LookAhead) of recorded history.
func (e *Engine) MaxDuration(id, k int, s score.Scorer, anchor Anchor) (int64, bool) {
	v := &e.fwd
	mid := int32(id)
	if anchor == LookAhead {
		v = e.reversed()
		mid = int32(e.fwd.ds.Len() - 1 - id)
	}
	var st Stats
	pr := newProbe()
	defer pr.release()
	return maxDuration(v, pr, &st, s, k, mid)
}

// maxDuration binary-searches the earliest window start keeping record id in
// the top-k (§II): membership is monotone in the window start, and each
// probe costs one building-block query. The probes reuse pr's buffers.
func maxDuration(v *view, pr *probe, st *Stats, s score.Scorer, k int, id int32) (int64, bool) {
	i := int(id)
	// Find the smallest j such that id is in the top-k of records [j, i].
	lo, hi := 0, i // invariant: predicate(hi) is true (window of one record)
	for lo < hi {
		mid := (lo + hi) / 2
		items := v.topkRange(pr, st, kindCheck, s, k, mid, i+1)
		if v.member(s, k, items, id) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	t := v.ds.Time(i)
	if lo == 0 {
		// The loop invariant keeps the predicate true at hi, so lo == 0
		// means the record is top-k over all recorded history.
		return t - v.ds.Time(0), true
	}
	// Durable exactly for windows excluding record lo-1: tau < t - Time(lo-1).
	return t - v.ds.Time(lo-1) - 1, false
}
