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
	// Workers bounds the query fan-out pool (and shard index construction);
	// <= 0 selects min(Shards, GOMAXPROCS).
	Workers int
	// Strategy picks the partitioning rule: ByCount (default) or ByTimeSpan.
	Strategy ShardStrategy
	// StraddleThreshold tunes boundary handling: a shard's boundary
	// straddlers (records whose durability window crosses into a
	// neighboring shard) are answered by per-record cross-shard probes when
	// they number at most the threshold, and otherwise by running the query's
	// strategy over the straddle region, whose building block merges the
	// overlapped shards' own indexes (nothing is built per query; see
	// spanBlock). 0 selects the default (128). Mostly a test knob; both paths
	// are exact.
	StraddleThreshold int
}

const defaultStraddleThreshold = 128

// timeShard is one contiguous partition of the parent dataset: records
// [lo, hi) served by an independent engine over a zero-copy slice view.
// immutable marks shards whose rows can never change — every shard of a
// batch ShardedEngine, and the sealed shards of a LiveShardedEngine (a
// sealed shard's engine may still be swapped for its denser freeze build,
// but the rows, and therefore every answer, are final). Only immutable
// shards may publish entries into a PartialCache. level is the shard's LSM
// level in the live lifecycle: fresh seals are level 0, and each compaction
// merges a run of same-level shards into one shard at level+1 (batch shards
// stay 0 — they never compact).
type timeShard struct {
	lo, hi    int
	eng       *Engine
	level     int
	immutable bool
}

// PartialKey identifies one shard-interior evaluation: the shard (by its
// global row range — stable for the engine's life, and rows in it immutable
// when the shard is), the interior row range actually evaluated, and every
// query parameter the answer depends on. Two queries with different [Start,
// End] that clamp to the same interior share the key — the normalization that
// lets overlapping intervals reuse each other's per-shard work.
type PartialKey struct {
	ShardLo, ShardHi int    // the shard's global row range [lo, hi)
	Lo, Hi           int    // interior rows evaluated, [Lo, Hi) ⊆ [ShardLo, ShardHi)
	Scorer           string // canonical scorer form (score.CanonicalKey)
	K                int
	Tau, Lead        int64
	Anchor           Anchor
	Algorithm        Algorithm
}

// PartialCache caches per-shard interior answers of fanned-out durable top-k
// queries. An interior record's durability window lies entirely inside its
// shard, so the answer depends only on the shard's own rows and the key's
// parameters — for an immutable shard such an entry never goes stale and is
// reusable across epochs forever, the LSM-style payoff of sealing. Engines
// only consult the cache for immutable shards and only for queries whose
// scorer has a canonical form.
//
// Implementations must be safe for concurrent use and must treat stored
// slices as immutable (they are shared by every future hit).
type PartialCache interface {
	GetPartial(key PartialKey) ([]int32, bool)
	PutPartial(key PartialKey, ids []int32)
}

// ShardInfo describes one time shard of a ShardedEngine.
type ShardInfo struct {
	Lo, Hi     int   // record index range [Lo, Hi) in the parent dataset
	Start, End int64 // arrival times of the shard's first and last record
	Level      int   // LSM level (live lifecycle; 0 for batch shards and fresh seals)
}

// shardGroup is one immutable epoch of a sharded deployment: a dataset
// snapshot, the contiguous time shards covering it, and the evaluation knobs.
// All cross-shard query machinery (fan-out, straddler merge, reach routing,
// score upper-bound pruning) runs against a group, never against the engine
// wrapper that produced it — a batch ShardedEngine owns exactly one group for
// its whole life, while a LiveShardedEngine swaps in a fresh group whenever an
// append or a seal changes the shard set. Queries therefore always evaluate
// against a coherent frozen epoch, no matter how the lifecycle moves on.
type shardGroup struct {
	ds       *data.Dataset
	opts     Options
	workers  int
	straddle int
	shards   []timeShard

	// pc, when non-nil, caches interior answers of immutable shards across
	// queries (and, for the live lifecycle, across epochs — sealed rows never
	// change). Set at registration time, before the first query.
	pc PartialCache

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

// ShardedEngine scales durable top-k evaluation horizontally: the dataset is
// partitioned into contiguous time-range shards, each served by an
// independent Engine over a zero-copy data.Dataset.Slice view, and queries
// fan out across the shards on a bounded worker pool.
//
// The decomposition is exact. A record's durable set within the query
// interval is the disjoint union of its per-shard durable sets (each record
// belongs to exactly one shard, by arrival), and a record's durability
// verdict depends only on its own anchored window: records whose window lies
// entirely inside their shard are answered by the shard engine alone, while
// boundary straddlers — records whose window crosses a shard edge — are
// answered across shards, either by counting the strictly-higher records of
// their window in one top-k merged over the overlapped shards (capped at k,
// which is all the >= k test needs) or by running the query's strategy over
// the straddle region, probing the same shard indexes through a spanBlock.
// Every record is therefore decided exactly once, never once per shard.
//
// Safe for concurrent queries, like Engine.
type ShardedEngine struct {
	group    shardGroup
	strategy ShardStrategy

	mu  sync.Mutex
	rev *data.Dataset // lazily built mirror for look-ahead durability sweeps
}

// NewShardedEngine partitions ds into so.Shards contiguous time shards and
// builds one engine per shard (concurrently, on the bounded worker pool).
func NewShardedEngine(ds *data.Dataset, opts Options, so ShardOptions) *ShardedEngine {
	cuts := shardCuts(ds, so.Shards, so.Strategy)
	count := len(cuts) - 1
	workers := resolveShardWorkers(so.Workers, count)
	se := &ShardedEngine{
		group: shardGroup{
			ds: ds, opts: opts, workers: workers,
			straddle: resolveStraddle(so.StraddleThreshold),
			shards:   make([]timeShard, count),
		},
		strategy: so.Strategy,
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range se.group.shards {
		// A batch engine's dataset never changes, so every shard is immutable.
		se.group.shards[i] = timeShard{lo: cuts[i], hi: cuts[i+1], immutable: true}
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

// resolveShardWorkers applies the ShardOptions.Workers default rule.
func resolveShardWorkers(workers, count int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > count {
			workers = count
		}
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// resolveStraddle applies the ShardOptions.StraddleThreshold default rule.
func resolveStraddle(straddle int) int {
	if straddle <= 0 {
		return defaultStraddleThreshold
	}
	return straddle
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

// Workers returns the bounded fan-out width.
func (se *ShardedEngine) Workers() int { return se.group.workers }

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

// SetPartialCache attaches a cross-query cache for per-shard interior
// answers. Must be called before the engine serves queries (registration
// time); the field is read without synchronization on the query path.
func (se *ShardedEngine) SetPartialCache(pc PartialCache) { se.group.pc = pc }

// PrepareSkyband eagerly materializes every shard's durable k-skyband ladder
// level for queries with parameter k (see Engine.PrepareSkyband).
func (se *ShardedEngine) PrepareSkyband(k int, anchor Anchor) {
	for i := range se.group.shards {
		se.group.shards[i].eng.PrepareSkyband(k, anchor)
	}
}

// plan runs the cost model over the full dataset shape, so Auto resolves to
// one strategy shared by every shard (per-shard resolution could diverge).
// The first shard's ladder state stands in for SBandReady: PrepareSkyband
// materializes every shard, and lazy S-Band builds reach all queried shards.
func (g *shardGroup) plan(q *Query) planner.Plan {
	return planner.Choose(queryPlannerInputs(g.ds, q, g.shards[0].eng.ladderBuilt(normalizedAnchor(q))))
}

// Explain returns the planner's cost-based assessment of q over the full
// dataset shape (shard fan-out does not change the strategy choice).
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

// shardAt returns the index of the shard owning global record index idx.
func (g *shardGroup) shardAt(idx int) int {
	return sort.Search(len(g.shards), func(i int) bool { return g.shards[i].hi > idx })
}

// shardPart is one shard's contribution to a fanned-out query.
type shardPart struct {
	ids []int32 // global record ids, ascending
	st  Stats
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
// strictly-higher-count probe — and shared by all fan-out workers. The
// steady-state read is a single atomic load: higherCount consults it on
// every cross-shard probe and the WithDurations binary searches issue
// thousands of those per query, so a lock here would serialize the fan-out.
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

// DurableTopK answers DurTop(k, I, tau) by fanning the query out across the
// time shards on the bounded worker pool and concatenating the per-shard
// answers (shards are time-ordered, so concatenation preserves the ascending
// time order of the Result contract). Results are identical to
// Engine.DurableTopK over the unsharded dataset.
func (se *ShardedEngine) DurableTopK(q Query) (*Result, error) {
	return se.group.DurableTopK(q)
}

// DurableTopK evaluates q against the group's frozen shard epoch.
func (g *shardGroup) DurableTopK(q Query) (*Result, error) {
	if err := q.validate(g.ds.Dims()); err != nil {
		return nil, err
	}
	alg := g.resolveAlgorithm(&q)
	q.Algorithm = alg
	if err := checkAlgorithm(&q, alg); err != nil {
		return nil, err
	}
	back, lead := windowSides(&q)

	startAt := time.Now()
	// Reach-based shard routing: an answer record arrives inside I, so only
	// shards owning an arrival in I can contribute answers — a shard whose
	// arrivals all fall outside I is skipped entirely, no matter how far the
	// durability windows reach past its boundaries ([minT, maxT] ± back/lead
	// may well overlap I without any arrival landing in it). Records beyond
	// I still influence answers, but only as blocking evidence inside some
	// window [t-back, t+lead]; that evidence is fetched by targeted
	// cross-shard probes (higherCount), never by visiting the shard, so the
	// pruning is exact. Skipped shards are tallied in Stats.ShardsPruned.
	// Pruning every shard (I between two shards' arrivals, or inside a
	// just-sealed empty tail) legitimately yields an empty answer.
	qlo, qhi := g.ds.IndexRange(q.Start, q.End)
	var tasks []int
	for i := range g.shards {
		if g.shards[i].lo < qhi && g.shards[i].hi > qlo {
			tasks = append(tasks, i)
		}
	}
	sb := &shardBounds{}

	// Resolve the scorer's canonical form once per query; shards reuse it for
	// their interior cache keys. Scorers without a canonical form (and
	// engines without an attached cache) evaluate everything as before.
	var scorerKey string
	if g.pc != nil {
		scorerKey, _ = score.CanonicalKey(q.Scorer)
	}

	parts := make([]shardPart, len(tasks))
	workers := g.workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		pr := newProbe()
		for ti, si := range tasks {
			parts[ti] = g.evalShard(pr, sb, si, &q, scorerKey, back, lead, qlo, qhi)
		}
		pr.release()
	} else {
		feed := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pr := newProbe()
				defer pr.release()
				for ti := range feed {
					parts[ti] = g.evalShard(pr, sb, tasks[ti], &q, scorerKey, back, lead, qlo, qhi)
				}
			}()
		}
		for ti := range tasks {
			feed <- ti
		}
		close(feed)
		wg.Wait()
	}

	out := &Result{Stats: Stats{Algorithm: alg, ShardsPruned: len(g.shards) - len(tasks)}}
	total := 0
	for i := range parts {
		total += len(parts[i].ids)
	}
	out.Records = make([]ResultRecord, 0, total)
	for i := range parts {
		p := &parts[i]
		for _, id := range p.ids {
			gid := int(id)
			out.Records = append(out.Records, ResultRecord{
				ID:          gid,
				Time:        g.ds.Time(gid),
				Score:       q.Scorer.Score(g.ds.Attrs(gid)),
				MaxDuration: -1,
			})
		}
		addStats(&out.Stats, &p.st)
	}

	if q.WithDurations {
		ahead := normalizedAnchor(&q) == LookAhead
		// The duration binary searches are the most expensive per-record
		// step; stride them over the same worker budget as the fan-out,
		// with per-worker probes and stats merged afterwards.
		durWorkers := min(g.workers, len(out.Records))
		if durWorkers <= 1 {
			pr := newProbe()
			for i := range out.Records {
				dur, full := g.maxDurationSharded(pr, sb, &out.Stats, q.Scorer, q.K, out.Records[i].ID, ahead)
				out.Records[i].MaxDuration = dur
				out.Records[i].FullHistory = full
			}
			pr.release()
		} else {
			stats := make([]Stats, durWorkers)
			var wg sync.WaitGroup
			for w := 0; w < durWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					pr := newProbe()
					defer pr.release()
					for i := w; i < len(out.Records); i += durWorkers {
						dur, full := g.maxDurationSharded(pr, sb, &stats[w], q.Scorer, q.K, out.Records[i].ID, ahead)
						out.Records[i].MaxDuration = dur
						out.Records[i].FullHistory = full
					}
				}(w)
			}
			wg.Wait()
			for w := range stats {
				addStats(&out.Stats, &stats[w])
			}
		}
	}
	out.Stats.Elapsed = time.Since(startAt)
	return out, nil
}

// evalShard answers the query restricted to one shard's records. Interior
// records (whole window inside the shard) go through the shard engine;
// boundary straddlers are decided across shards.
func (g *shardGroup) evalShard(pr *probe, sb *shardBounds, si int, q *Query, scorerKey string, back, lead int64, qlo, qhi int) shardPart {
	var part shardPart
	sh := &g.shards[si]
	subLo, subHi := max(qlo, sh.lo), min(qhi, sh.hi)
	if subLo >= subHi {
		return part
	}
	n := g.ds.Len()

	// The interior is the contiguous index run whose windows touch no other
	// shard: strictly after the previous shard's last arrival plus back, and
	// strictly before the next shard's first arrival minus lead. The first
	// live shard has no previous shard — rows below g.shards[0].lo (retired
	// by retention) are not evidence, so its interior extends to its lo.
	iLo, iHi := subLo, subHi
	if sh.lo > g.shards[0].lo {
		minT := satAdd(satAdd(g.ds.Time(sh.lo-1), back), 1)
		iLo = clampInt(g.ds.LowerBound(minT), subLo, subHi)
	}
	if sh.hi < n {
		maxT := satSub(satSub(g.ds.Time(sh.hi), lead), 1)
		iHi = clampInt(g.ds.UpperBound(maxT), iLo, subHi)
	}

	g.evalStraddlers(pr, sb, &part, q, back, lead, subLo, iLo)
	if iLo < iHi {
		// The interior answer depends only on the shard's own rows plus the
		// key parameters ([Time(iLo), Time(iHi-1)] is derived from rows of
		// this shard), so for an immutable shard it can be served from — and
		// published into — the cross-query partial cache. Straddlers are
		// never cached: their verdicts read neighboring shards, which the
		// live lifecycle reshapes.
		var pkey PartialKey
		cacheable := g.pc != nil && sh.immutable && scorerKey != ""
		if cacheable {
			pkey = PartialKey{
				ShardLo: sh.lo, ShardHi: sh.hi, Lo: iLo, Hi: iHi,
				Scorer: scorerKey, K: q.K, Tau: q.Tau, Lead: q.Lead,
				Anchor: q.Anchor, Algorithm: q.Algorithm,
			}
			if ids, ok := g.pc.GetPartial(pkey); ok {
				part.ids = append(part.ids, ids...)
				g.evalStraddlers(pr, sb, &part, q, back, lead, iHi, subHi)
				return part
			}
		}
		// The shard engine runs on this worker's probe, so what its memo
		// learned about the shard's index serves the straddlers around the
		// interior too, and no record is scored only to be dropped.
		sub := *q
		sub.Start, sub.End = g.ds.Time(iLo), g.ds.Time(iHi-1)
		var st Stats
		_, ids, mirrored := sh.eng.evalIDs(pr, &sub, sub.Algorithm, &st)
		at := len(part.ids)
		part.ids = appendGlobalIDs(part.ids, ids, sh.lo, sh.hi, mirrored)
		if cacheable {
			g.pc.PutPartial(pkey, append([]int32(nil), part.ids[at:]...))
		}
		addStats(&part.st, &st)
	}
	g.evalStraddlers(pr, sb, &part, q, back, lead, iHi, subHi)
	return part
}

func addStats(dst, src *Stats) {
	dst.CheckQueries += src.CheckQueries
	dst.FindQueries += src.FindQueries
	dst.MaintQueries += src.MaintQueries
	dst.CandidateCount += src.CandidateCount
	dst.Visited += src.Visited
	dst.ShardsPruned += src.ShardsPruned
}

// evalStraddlers decides the boundary records in [lo, hi): small runs by
// per-record cross-shard probes, large runs by the hop machinery over the
// straddle region — every record of every straddler's window — so the run is
// answered at answer-proportional cost instead of per-record probing. The
// region gets no index of its own: its building block is a spanBlock, which
// answers each probe from the overlapped shards' indexes. Both paths are
// exact.
func (g *shardGroup) evalStraddlers(pr *probe, sb *shardBounds, part *shardPart, q *Query, back, lead int64, lo, hi int) {
	if lo >= hi {
		return
	}
	if hi-lo <= g.straddle {
		for i := lo; i < hi; i++ {
			part.st.Visited++
			if g.durableAt(pr, sb, &part.st, q, back, lead, i) {
				part.ids = append(part.ids, int32(i))
			}
		}
		return
	}

	// Region = union of the straddlers' windows; contiguous because windows
	// are anchored to sorted arrivals. Clamped below to the first live
	// shard's lo: rows retired by retention are not evidence, and letting
	// the region read them would resurrect retired rows into verdicts the
	// probe path (which only visits live shards) excludes.
	rlo := g.ds.LowerBound(satSub(g.ds.Time(lo), back))
	if rlo < g.shards[0].lo {
		rlo = g.shards[0].lo
	}
	rhi := g.ds.UpperBound(satAdd(g.ds.Time(hi-1), lead))
	sub := *q
	sub.Start, sub.End = g.ds.Time(lo), g.ds.Time(hi-1)
	if sub.Algorithm == SBand {
		// S-Band amortizes a skyband ladder across queries; a region lives for
		// one query, so that build is pure overhead — hop instead.
		sub.Algorithm = SHop
	}

	// The strategies run over a transient engine whose views are the
	// region's rows and its spanBlocks. Only the mirrored view copies rows,
	// into pooled columns.
	region := g.ds.Slice(rlo, rhi)
	first := g.shardAt(rlo)
	mini := Engine{opts: g.opts, fwd: newView(region, &spanBlock{g: g, ds: region, rlo: rlo, rhi: rhi, first: first})}
	if normalizedAnchor(&sub) == LookAhead {
		mc := mirrorPool.Get().(*mirrorCols)
		defer mirrorPool.Put(mc)
		mirror := region.ReversedInto(mc.times, mc.flat)
		mc.times, mc.flat = mirror.Times(), mirror.FlatAttrs()
		rv := newView(mirror, &spanBlock{g: g, ds: mirror, rlo: rlo, rhi: rhi, first: first, mirrored: true})
		mini.rev.Store(&rv)
	}
	var st Stats
	_, ids, mirrored := mini.evalIDs(pr, &sub, sub.Algorithm, &st)
	part.ids = appendGlobalIDs(part.ids, ids, rlo, rhi, mirrored)
	addStats(&part.st, &st)
}

// appendGlobalIDs appends, in ascending order, the global ids of an evalIDs
// answer over rows [lo, hi): forward id i is row lo+i; mirrored ids ascend in
// reversed time, id r being row hi-1-r.
func appendGlobalIDs(dst, ids []int32, lo, hi int, mirrored bool) []int32 {
	if mirrored {
		for i := len(ids) - 1; i >= 0; i-- {
			dst = append(dst, int32(hi-1-int(ids[i])))
		}
		return dst
	}
	for _, id := range ids {
		dst = append(dst, int32(lo)+id)
	}
	return dst
}

// mirrorCols is the column storage of one straddle region's time-mirrored
// rows. A region can be half the dataset, and only a look-ahead evaluation in
// flight needs one, so the columns have a pool of their own: riding on the
// pooled probes would park a region-sized buffer on every probe in the
// process (measured: +10 MiB live heap on a 100k-row archive).
type mirrorCols struct {
	times []int64
	flat  []float64
}

var mirrorPool = sync.Pool{New: func() interface{} { return new(mirrorCols) }}

// durableAt decides one record from the definition: durable iff fewer than k
// records of its anchored window score strictly higher, counted across every
// overlapped shard.
func (g *shardGroup) durableAt(pr *probe, sb *shardBounds, st *Stats, q *Query, back, lead int64, i int) bool {
	t := g.ds.Time(i)
	wlo, whi := g.ds.IndexRange(satSub(t, back), satAdd(t, lead))
	ref := q.Scorer.Score(g.ds.Attrs(i))
	return g.higherCount(pr, sb, st, q.Scorer, q.K, wlo, whi, ref) < q.K
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
	for si := g.shardAt(lo); si < len(g.shards) && g.shards[si].lo < hi; si++ {
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
		pr.buf = sh.eng.fwd.mergeRange(&m, s, plo, phi, sh.lo, pr.sc, pr.buf)
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

// reversedDS returns the lazily built, cached time-mirrored dataset.
func (se *ShardedEngine) reversedDS() *data.Dataset {
	se.mu.Lock()
	defer se.mu.Unlock()
	if se.rev == nil {
		se.rev = se.group.ds.Reversed()
	}
	return se.rev
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
	ds := se.group.ds
	if anchor == LookAhead {
		ds = se.reversedDS()
	}
	out := durabilitySweep(ds, k, s)
	if anchor == LookAhead {
		out = mirrorProfile(out, se.group.ds)
	}
	return out, nil
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

func clampInt(x, lo, hi int) int {
	return min(max(x, lo), hi)
}
