package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/planner"
	"repro/internal/score"
)

// ShardStrategy selects how NewShardedEngine cuts the time domain into
// contiguous shards.
type ShardStrategy int

const (
	// ByCount gives every shard (nearly) the same number of records. Best
	// for bursty arrival processes: per-shard index sizes, memory and query
	// work stay balanced regardless of how arrivals cluster in time.
	ByCount ShardStrategy = iota
	// ByTimeSpan gives every shard the same width of the time domain. Best
	// when queries are routed by wall-clock ranges (e.g. one shard per
	// month) and arrivals are roughly uniform.
	ByTimeSpan
)

// String names the strategy ("count", "timespan").
func (s ShardStrategy) String() string {
	if s == ByTimeSpan {
		return "timespan"
	}
	return "count"
}

// ParseShardStrategy converts a name accepted by String back to a strategy.
func ParseShardStrategy(s string) (ShardStrategy, error) {
	switch s {
	case "count":
		return ByCount, nil
	case "timespan":
		return ByTimeSpan, nil
	}
	return ByCount, fmt.Errorf("core: unknown shard strategy %q (want count|timespan)", s)
}

// ShardOptions configures a ShardedEngine.
type ShardOptions struct {
	// Shards is the number of contiguous time shards; values below 1 (and
	// above the record count) are clamped.
	Shards int
	// Strategy picks the partitioning rule: ByCount (default) or ByTimeSpan.
	Strategy ShardStrategy
}

// timeShard is one contiguous partition of the parent dataset: records
// [lo, hi) served by an independent engine over a zero-copy slice view. Its
// rows never change once it is a shard of a batch ShardedEngine or a sealed
// shard of a LiveShardedEngine (a sealed shard's engine may still be swapped
// for its denser freeze build, but the rows, and therefore every answer, are
// final). level is the shard's LSM level in the live lifecycle: fresh seals
// are level 0, and each compaction merges a run of same-level shards into one
// shard at level+1 (batch shards stay 0 — they never compact).
type timeShard struct {
	lo, hi int
	eng    *Engine
	level  int
}

// PartialCache has no producer; only the frozen benchmark/ names it, and it leaves with the next benchmark-purpose PR.
type PartialCache interface{}

// ShardInfo describes one time shard of a ShardedEngine.
type ShardInfo struct {
	Lo, Hi     int   // record index range [Lo, Hi) in the parent dataset
	Start, End int64 // arrival times of the shard's first and last record
	Level      int   // LSM level (live lifecycle; 0 for batch shards and fresh seals)
}

// shardGroup is one immutable epoch of a sharded deployment: a dataset
// snapshot and the contiguous time shards covering it. A query is one span
// over the group: the strategies run once over the rows the query can read,
// every probe answered from the shards' own indexes through a spanBlock, with
// reach routing and score upper-bound pruning for the duration searches. All
// of it runs against a group, never against the engine wrapper that produced
// it — a batch ShardedEngine owns exactly one group for its whole life, while
// a LiveShardedEngine swaps in a fresh group whenever an append or a seal
// changes the shard set. Queries therefore always evaluate against a coherent
// frozen epoch, no matter how the lifecycle moves on.
type shardGroup struct {
	ds     *data.Dataset
	opts   Options
	shards []timeShard

	// seq identifies the shard set so per-query caches derived from it (the
	// shardBounds score upper bounds) can detect that they were built against
	// a different epoch and regenerate instead of serving stale bounds. A
	// batch engine's group keeps seq 0 forever; the live lifecycle bumps it
	// on every append and seal.
	seq uint64
}

// Querier is the query-serving contract shared by Engine, ShardedEngine,
// LiveEngine and LiveShardedEngine; callers that only evaluate queries (the
// wire server, CLIs) can hold any of them behind it.
type Querier interface {
	DurableTopK(q Query) (*Result, error)
	Explain(q Query) (planner.Plan, error)
	MostDurable(k int, s score.Scorer, anchor Anchor, n int) ([]DurabilityRecord, error)
	Dataset() *data.Dataset
}

var (
	_ Querier = (*Engine)(nil)
	_ Querier = (*ShardedEngine)(nil)
)

// ShardedEngine scales durable top-k indexing horizontally: the dataset is
// partitioned into contiguous time-range shards, each indexed by an
// independent Engine over a zero-copy data.Dataset.Slice view — the unit of
// index construction, and in the live lifecycle of sealing and compaction.
//
// A query is not cut along the shards. It is evaluated once, as a single span
// over the group (see shardGroup.DurableTopK): the strategy runs over the rows
// of I plus the evidence rows its windows reach, and every range top-k probe
// continues one merge across the shards it overlaps (spanBlock). A record's
// durability verdict depends only on its own anchored window, so the answer
// is the unsharded engine's, by the same code.
//
// Safe for concurrent queries, like Engine.
type ShardedEngine struct {
	group    shardGroup
	strategy ShardStrategy
}

// NewShardedEngine partitions ds into so.Shards contiguous time shards and
// builds one engine per shard, GOMAXPROCS of them at a time.
func NewShardedEngine(ds *data.Dataset, opts Options, so ShardOptions) *ShardedEngine {
	cuts := shardCuts(ds, so.Shards, so.Strategy)
	se := &ShardedEngine{
		group:    shardGroup{ds: ds, opts: opts, shards: make([]timeShard, len(cuts)-1)},
		strategy: so.Strategy,
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range se.group.shards {
		se.group.shards[i] = timeShard{lo: cuts[i], hi: cuts[i+1]}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			sh := &se.group.shards[i]
			sh.eng = NewEngine(ds.Slice(sh.lo, sh.hi), opts)
		}(i)
	}
	wg.Wait()
	return se
}

// shardCuts returns ascending record-index cut points partitioning [0, n)
// into non-empty contiguous ranges (first cut 0, last cut n).
func shardCuts(ds *data.Dataset, count int, strategy ShardStrategy) []int {
	n := ds.Len()
	if count < 1 {
		count = 1
	}
	if count > n {
		count = n
	}
	cuts := make([]int, 0, count+1)
	cuts = append(cuts, 0)
	switch strategy {
	case ByTimeSpan:
		t0, t1 := ds.Span()
		// Edges are computed in float64 so extreme time domains cannot
		// overflow; rounding only nudges a cut, never breaks correctness.
		span := float64(t1) - float64(t0)
		for j := 1; j < count; j++ {
			edge := float64(t0) + span*float64(j)/float64(count)
			cut := ds.LowerBound(int64(edge))
			if cut > cuts[len(cuts)-1] && cut < n {
				cuts = append(cuts, cut)
			}
		}
	default:
		for j := 1; j < count; j++ {
			cut := int(int64(j) * int64(n) / int64(count))
			if cut > cuts[len(cuts)-1] && cut < n {
				cuts = append(cuts, cut)
			}
		}
	}
	return append(cuts, n)
}

// Dataset returns the full (unsharded) dataset.
func (se *ShardedEngine) Dataset() *data.Dataset { return se.group.ds }

// NumShards returns the number of time shards actually built (duplicate cut
// points collapse, so it can be below ShardOptions.Shards).
func (se *ShardedEngine) NumShards() int { return len(se.group.shards) }

// Shards describes the time shards in ascending time order.
func (se *ShardedEngine) Shards() []ShardInfo { return se.group.infos() }

// infos describes the group's shards in ascending time order.
func (g *shardGroup) infos() []ShardInfo {
	out := make([]ShardInfo, len(g.shards))
	for i, sh := range g.shards {
		out[i] = ShardInfo{
			Lo: sh.lo, Hi: sh.hi,
			Start: g.ds.Time(sh.lo), End: g.ds.Time(sh.hi - 1),
			Level: sh.level,
		}
	}
	return out
}

// plan runs the cost model over the full dataset shape. S-Band amortizes a
// per-dataset skyband ladder across queries and a span has none, so the group
// never offers it: Auto's estimates describe what runs.
func (g *shardGroup) plan(q *Query) planner.Plan {
	p := planner.Choose(queryPlannerInputs(g.ds, q, false))
	for i, e := range p.Estimates {
		if e.Strategy == planner.SBand && e.Eligible {
			copy(p.Estimates[i:], p.Estimates[i+1:])
			p.Estimates[len(p.Estimates)-1] = planner.Estimate{
				Strategy: planner.SBand, Reason: "no skyband ladder over a shard group (pinned, it runs s-hop)",
			}
			break
		}
	}
	p.Chosen = p.Estimates[0].Strategy
	return p
}

// Explain returns the planner's cost-based assessment of q over the full
// dataset shape.
func (se *ShardedEngine) Explain(q Query) (planner.Plan, error) {
	return se.group.Explain(q)
}

// Explain validates q and runs the group's cost model.
func (g *shardGroup) Explain(q Query) (planner.Plan, error) {
	if err := q.validate(g.ds.Dims()); err != nil {
		return planner.Plan{}, err
	}
	return g.plan(&q), nil
}

func (g *shardGroup) resolveAlgorithm(q *Query) Algorithm {
	if q.Algorithm != Auto {
		return q.Algorithm
	}
	return strategyAlgorithm(g.plan(q).Chosen)
}

// windowSides returns the portions of the durability window before (back)
// and after (lead) each record's arrival for q's anchor.
func windowSides(q *Query) (back, lead int64) {
	switch q.Anchor {
	case LookAhead:
		return 0, q.Tau
	case General:
		return q.Tau - q.Lead, q.Lead
	default:
		return q.Tau, 0
	}
}

// shardAt returns the index of the shard among shards (ascending, contiguous)
// owning global record index idx.
func shardAt(shards []timeShard, idx int) int {
	return sort.Search(len(shards), func(i int) bool { return shards[i].hi > idx })
}

// upperBoundAller is the optional Block capability behind shard-level score
// pruning: a single upper bound of the scorer over every record the block
// indexes. *topk.Index implements it through the same skyline gather path
// the tree descent uses, and *topk.View (the live tail's pinned snapshot)
// through the captured chunk-tree bounds plus a buffered-suffix scan.
type upperBoundAller interface {
	UpperBoundAll(s score.Scorer) float64
}

// shardBounds caches every shard's global score upper bound for one query's
// scorer. Built at most once per (query, epoch) — on the first cross-shard
// strictly-higher-count probe. The steady-state read is a single atomic load:
// higherCount consults it on every cross-shard probe and the WithDurations
// binary searches issue thousands of those per query.
//
// The cache is valid only for the exact shard set it was computed from: a
// bound indexed by shard position would silently misprune if the shard set
// changed underneath it (a live seal splits the tail into a new sealed shard
// plus a fresh tail, shifting positions and shrinking reaches). The cached
// value therefore carries the epoch seq it was computed under, and bounds()
// regenerates on mismatch rather than serving stale upper bounds; queries
// snapshot one group up front, so in the current call graph a mismatch is
// impossible — the guard makes the immutability assumption explicit instead
// of implicit.
type shardBounds struct {
	v  atomic.Pointer[boundsEpoch]
	mu sync.Mutex // serializes (re)computation; readers never take it
}

// boundsEpoch is one immutable (epoch, bounds) publication.
type boundsEpoch struct {
	seq uint64
	ub  []float64
}

// bounds returns the per-shard upper bounds for s under the group's epoch,
// computing them on first use and regenerating them if sb was built against
// a different epoch. Shards whose block cannot report a bound get +Inf
// (never pruned).
func (g *shardGroup) bounds(sb *shardBounds, s score.Scorer) []float64 {
	if be := sb.v.Load(); be != nil && be.seq == g.seq {
		return be.ub
	}
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if be := sb.v.Load(); be != nil && be.seq == g.seq {
		return be.ub
	}
	ub := make([]float64, len(g.shards))
	for i := range g.shards {
		if b, ok := g.shards[i].eng.Index().(upperBoundAller); ok {
			ub[i] = b.UpperBoundAll(s)
		} else {
			ub[i] = math.Inf(1)
		}
	}
	sb.v.Store(&boundsEpoch{seq: g.seq, ub: ub})
	return ub
}

// DurableTopK answers DurTop(k, I, tau) as one span over the time shards.
// Results are identical to Engine.DurableTopK over the unsharded dataset.
func (se *ShardedEngine) DurableTopK(q Query) (*Result, error) {
	return se.group.DurableTopK(q)
}

// DurableTopK evaluates q against the group's frozen shard epoch.
func (g *shardGroup) DurableTopK(q Query) (*Result, error) {
	if err := q.validate(g.ds.Dims()); err != nil {
		return nil, err
	}
	alg := g.resolveAlgorithm(&q)
	if err := checkAlgorithm(&q, alg); err != nil {
		return nil, err
	}
	if alg == SBand {
		// Only a pinned S-Band gets here (the group planner never offers it): a
		// span has no skyband ladder to amortize, so it hops, and Stats says so.
		alg = SHop
	}
	q.Algorithm = alg

	startAt := time.Now()
	// An answer record arrives inside I, at a live row: rows below the first
	// live shard were retired by retention and belong to no epoch.
	lo, hi := g.ds.IndexRange(q.Start, q.End)
	lo = max(lo, g.shards[0].lo)
	// ShardsPruned tallies the shards owning no arrival in I — all of them
	// when I falls between two shards' arrivals, a legitimately empty answer.
	// Such shards still serve as blocking evidence wherever a window reaches
	// into them, but only through probes, never by being visited.
	out := &Result{Records: []ResultRecord{}, Stats: Stats{Algorithm: alg, ShardsPruned: len(g.shards)}}
	pr := newProbe()
	defer pr.release()
	if lo < hi {
		out.Stats.ShardsPruned -= shardAt(g.shards, hi-1) - shardAt(g.shards, lo) + 1
		g.evalSpan(pr, q, lo, hi, out)
	}
	if q.WithDurations {
		ahead := normalizedAnchor(&q) == LookAhead
		sb := &shardBounds{}
		for i := range out.Records {
			r := &out.Records[i]
			r.MaxDuration, r.FullHistory = g.maxDurationSharded(pr, sb, &out.Stats, q.Scorer, q.K, r.ID, ahead)
		}
	}
	out.Stats.Elapsed = time.Since(startAt)
	return out, nil
}

// evalSpan decides rows [lo, hi) — the arrivals in I — by running q's strategy
// once over the span they can read: every row of every window, contiguous
// because windows are anchored to sorted arrivals. The span gets no index of
// its own; its building block is a spanBlock over the shards' indexes.
func (g *shardGroup) evalSpan(pr *probe, q Query, lo, hi int, out *Result) {
	// Clamped below to the first live shard's lo: rows retired by retention
	// are not evidence.
	back, lead := windowSides(&q)
	rlo := max(g.ds.LowerBound(satSub(g.ds.Time(lo), back)), g.shards[0].lo)
	rhi := g.ds.UpperBound(satAdd(g.ds.Time(hi-1), lead))
	q.Start, q.End = g.ds.Time(lo), g.ds.Time(hi-1)

	// The strategies run over the span's rows and a spanBlock. Only the
	// mirrored view copies rows, into pooled columns.
	span := g.ds.Slice(rlo, rhi)
	mirrored := normalizedAnchor(&q) == LookAhead
	var v view
	if mirrored {
		var mc *mirrorCols
		v, mc = mirrorSpan(span, g.shards, rlo, rhi)
		defer mirrorPool.Put(mc)
	} else {
		v = newView(span, &spanBlock{shards: g.shards, ds: span, rlo: rlo, rhi: rhi})
	}
	ids := evalIDs(pr, &v, &q, q.Algorithm, &out.Stats, nil) // a span never runs S-Band
	out.Records = spanRecords(g.ds, q.Scorer, ids, rlo, rhi, mirrored)
}

// spanRecords returns the answer records of ids, the ascending answer ids of
// an evaluation over rows [rlo, rhi) of ds: forward id i is row rlo+i;
// mirrored ids ascend in reversed time, id r being row rhi-1-r, so they fill
// the answer back to front.
func spanRecords(ds *data.Dataset, s score.Scorer, ids []int32, rlo, rhi int, mirrored bool) []ResultRecord {
	recs := make([]ResultRecord, len(ids))
	for j, id := range ids {
		row, at := rlo+int(id), j
		if mirrored {
			row, at = rhi-1-int(id), len(ids)-1-j
		}
		recs[at] = ResultRecord{
			ID:          row,
			Time:        ds.Time(row),
			Score:       s.Score(ds.Attrs(row)),
			MaxDuration: -1,
		}
	}
	return recs
}

// higherCount returns min(h, k) where h is the number of records in the
// global index range [lo, hi) scoring strictly above ref: the overlapped
// shards continue one merge (see spanBlock), whose top-k holds min(h, k) such
// records, and the sweep stops as soon as k of them are in hand. A shard
// whose cached global upper bound is <= ref cannot contribute (no record in
// it scores strictly above ref) and is skipped without a probe, tallied in
// Stats.ShardsPruned; the window-reach binary searches of maxDurationSharded
// sweep many shards per record, so the skip saves a full tree descent per
// pruned shard — and the shared bound most of the descent in the others.
func (g *shardGroup) higherCount(pr *probe, sb *shardBounds, st *Stats, s score.Scorer, k, lo, hi int, ref float64) int {
	var ubs []float64
	m := pr.sc.Merger(k)
	for si := shardAt(g.shards, lo); si < len(g.shards) && g.shards[si].lo < hi; si++ {
		sh := &g.shards[si]
		plo, phi := max(lo, sh.lo)-sh.lo, min(hi, sh.hi)-sh.lo
		if plo >= phi {
			continue
		}
		if ubs == nil {
			ubs = g.bounds(sb, s)
		}
		if ubs[si] <= ref {
			st.ShardsPruned++
			continue
		}
		st.count(kindCheck)
		pr.buf = sh.eng.fwd.mergeRange(&m, s, plo, phi, sh.lo, false, pr.sc, pr.buf)
		if kth, full := m.Kth(); full && kth.Score > ref {
			break // k records already outrank ref
		}
	}
	pr.buf = m.Finish(pr.buf)
	higher := 0
	for _, it := range pr.buf {
		if !(it.Score > ref) {
			break // items descend by score; the rest cannot be higher
		}
		higher++
	}
	return higher
}

// maxDurationSharded is the cross-shard counterpart of maxDuration: a binary
// search over the window start (end, when ahead) with sharded strictly-higher
// counts as the membership predicate.
func (g *shardGroup) maxDurationSharded(pr *probe, sb *shardBounds, st *Stats, s score.Scorer, k, id int, ahead bool) (int64, bool) {
	ref := s.Score(g.ds.Attrs(id))
	t := g.ds.Time(id)
	n := g.ds.Len()
	if !ahead {
		// Smallest j such that id stays top-k of records [j, id]. The search
		// floor is the first live row — rows retired by retention are not
		// evidence, and a record surviving back to the retention boundary has
		// full (retained) history.
		base := g.shards[0].lo
		lo, hi := base, id
		for lo < hi {
			mid := (lo + hi) / 2
			if g.higherCount(pr, sb, st, s, k, mid, id+1, ref) < k {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if lo == base {
			return t - g.ds.Time(base), true
		}
		return t - g.ds.Time(lo-1) - 1, false
	}
	// Largest j such that id stays top-k of records [id, j].
	lo, hi := id, n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if g.higherCount(pr, sb, st, s, k, id, mid+1, ref) < k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == n-1 {
		return g.ds.Time(n-1) - t, true
	}
	return g.ds.Time(lo+1) - t - 1, false
}

// DurabilityProfile computes every record's maximum durability in one sweep
// over the full dataset (see Engine.DurabilityProfile; the sweep needs no
// index, so sharding does not change it).
func (se *ShardedEngine) DurabilityProfile(k int, s score.Scorer, anchor Anchor) ([]DurabilityRecord, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if s == nil {
		return nil, ErrNoScorer
	}
	if s.Dims() != se.group.ds.Dims() {
		return nil, ErrDims
	}
	return durabilitySweep(se.group.ds, k, s, anchor == LookAhead), nil
}

// MostDurable returns the top-n records by durability (see
// Engine.MostDurable).
func (se *ShardedEngine) MostDurable(k int, s score.Scorer, anchor Anchor, n int) ([]DurabilityRecord, error) {
	profile, err := se.DurabilityProfile(k, s, anchor)
	if err != nil {
		return nil, err
	}
	return mostDurable(profile, n), nil
}
