// Package topk implements the paper's range top-k building block (§II,
// Appendix A): an index over a time-ordered dataset answering preference
// top-k queries Q(u, k, W) restricted to a time window W.
//
// The index is a static balanced binary tree over arrival order. Each node
// summarizes its span with an axis-aligned bounding box (MBR) and, up to a
// configurable size cap, the skyline of its span (Algorithm 4). A query runs
// best-first branch-and-bound over nodes ordered by an upper bound of the
// node's maximum score, descending until spans fall below LengthThreshold
// and scanning those directly (Algorithm 5).
//
// Results are ordered by (score desc, arrival time desc). The recency
// tie-break is part of the contract: the durable top-k algorithms rely on it
// for hop safety and blocking correctness under score ties.
package topk

import (
	"math"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/skyline"
)

// DefaultLengthThreshold mirrors the paper's LENGTH_THRESHOLD constant.
const DefaultLengthThreshold = 128

// DefaultMaxNodeSkyline caps the per-node skyline size; nodes whose skyline
// exceeds the cap fall back to MBR-only upper bounds. The cap keeps index
// construction near-linear on anti-correlated data, where span skylines can
// degenerate to the whole span.
const DefaultMaxNodeSkyline = 64

// Options configures index construction.
type Options struct {
	// LengthThreshold is the span size below which nodes become scanned
	// leaves. Zero selects DefaultLengthThreshold.
	LengthThreshold int
	// MaxNodeSkyline caps stored skyline sizes; larger skylines are dropped
	// in favour of the node MBR. Zero selects DefaultMaxNodeSkyline;
	// negative disables skyline summaries entirely (MBR-only index).
	MaxNodeSkyline int
}

func (o Options) withDefaults() Options {
	if o.LengthThreshold == 0 {
		o.LengthThreshold = DefaultLengthThreshold
	}
	if o.LengthThreshold < 1 {
		o.LengthThreshold = 1
	}
	if o.MaxNodeSkyline == 0 {
		o.MaxNodeSkyline = DefaultMaxNodeSkyline
	}
	return o
}

// Item is one record of a top-k result.
type Item struct {
	ID    int32   // record index in the dataset
	Time  int64   // arrival time
	Score float64 // score under the query's scorer
}

// Better reports whether a ranks strictly before b under the total order
// (score desc, arrival time desc).
func Better(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Time > b.Time
}

type node struct {
	lo, hi      int32 // record index span [lo, hi)
	left, right int32 // children, -1 for scanned leaves
	skyline     []int32
	mbrLo       []float64
	mbrHi       []float64
}

// Index is an immutable range top-k index over one dataset. Safe for
// concurrent queries.
type Index struct {
	// id names the index in a Scratch's memo session; unique per Build.
	id    uint64
	ds    *data.Dataset
	opts  Options
	nodes []node
	root  int32
	// Hot-loop caches of the dataset's columnar storage: leaf scans read
	// times and the flat row-major attribute array directly instead of
	// going through per-record accessors.
	times []int64
	flat  []float64
	dims  int
	// pointsAdapter lets skyline operators address records by id.
	pts dsPoints
}

type dsPoints struct{ ds *data.Dataset }

func (p dsPoints) Point(id int32) []float64 { return p.ds.Attrs(int(id)) }

// indexSeq hands out Index.id.
var indexSeq atomic.Uint64

// Build constructs the index in O(n log n) time (subject to the skyline cap)
// and O(n) space.
func Build(ds *data.Dataset, opts Options) *Index {
	opts = opts.withDefaults()
	x := &Index{
		id: indexSeq.Add(1),
		ds: ds, opts: opts, pts: dsPoints{ds},
		times: ds.Times(), flat: ds.FlatAttrs(), dims: ds.Dims(),
	}
	est := 2*ds.Len()/opts.LengthThreshold + 2
	x.nodes = make([]node, 0, est)
	x.root = x.build(0, int32(ds.Len()))
	return x
}

// Dataset returns the indexed dataset.
func (x *Index) Dataset() *data.Dataset { return x.ds }

// Options returns the construction options after defaulting.
func (x *Index) Options() Options { return x.opts }

func (x *Index) build(lo, hi int32) int32 {
	id := int32(len(x.nodes))
	x.nodes = append(x.nodes, node{lo: lo, hi: hi, left: -1, right: -1})
	d := x.ds.Dims()
	if int(hi-lo) <= x.opts.LengthThreshold {
		mbrLo, mbrHi := x.spanMBR(lo, hi)
		sky := x.spanSkyline(lo, hi)
		n := &x.nodes[id]
		n.mbrLo, n.mbrHi, n.skyline = mbrLo, mbrHi, sky
		return id
	}
	mid := lo + (hi-lo)/2
	left := x.build(lo, mid)
	right := x.build(mid, hi)
	// Merge child summaries bottom-up (Algorithm 4).
	l, r := &x.nodes[left], &x.nodes[right]
	mbrLo := make([]float64, d)
	mbrHi := make([]float64, d)
	for j := 0; j < d; j++ {
		mbrLo[j] = math.Min(l.mbrLo[j], r.mbrLo[j])
		mbrHi[j] = math.Max(l.mbrHi[j], r.mbrHi[j])
	}
	var sky []int32
	if x.opts.MaxNodeSkyline > 0 && l.skyline != nil && r.skyline != nil {
		sky = skyline.Merge(x.pts, l.skyline, r.skyline)
		if len(sky) > x.opts.MaxNodeSkyline {
			sky = nil
		}
	}
	n := &x.nodes[id]
	n.left, n.right = left, right
	n.mbrLo, n.mbrHi, n.skyline = mbrLo, mbrHi, sky
	return id
}

func (x *Index) spanMBR(lo, hi int32) (mbrLo, mbrHi []float64) {
	d := x.ds.Dims()
	mbrLo = make([]float64, d)
	mbrHi = make([]float64, d)
	copy(mbrLo, x.ds.Attrs(int(lo)))
	copy(mbrHi, x.ds.Attrs(int(lo)))
	for i := lo + 1; i < hi; i++ {
		row := x.ds.Attrs(int(i))
		for j := 0; j < d; j++ {
			if row[j] < mbrLo[j] {
				mbrLo[j] = row[j]
			}
			if row[j] > mbrHi[j] {
				mbrHi[j] = row[j]
			}
		}
	}
	return mbrLo, mbrHi
}

func (x *Index) spanSkyline(lo, hi int32) []int32 {
	if x.opts.MaxNodeSkyline <= 0 {
		return nil
	}
	ids := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	sky := skyline.Compute(x.pts, ids)
	if len(sky) > x.opts.MaxNodeSkyline {
		return nil
	}
	return sky
}

// upperBound returns a valid upper bound of the scorer over the node's span.
// Monotone scorers use the skyline maximum when available (tighter); all
// scorers fall back to the MBR bound. Skyline ids are bulk-scored through
// sc's gather buffer when the scorer has a gather kernel, so the descent —
// like the leaf scan — runs without per-record interface dispatch; the
// scalar loop repeats the same scores in the same order, so both paths
// produce bit-for-bit identical bounds.
func (x *Index) upperBound(s score.Scorer, monotone bool, bulk score.BulkScorer, sc *Scratch, n *node) float64 {
	if monotone && n.skyline != nil {
		best := math.Inf(-1)
		if bulk != nil {
			buf := sc.gatherBuf(len(n.skyline))
			bulk.ScoreGather(buf, x.flat, x.dims, n.skyline)
			sc.gatherHits++
			for _, v := range buf {
				if v > best {
					best = v
				}
			}
			return best
		}
		d := x.dims
		for _, id := range n.skyline {
			i := int(id)
			if v := s.Score(x.flat[i*d : (i+1)*d : (i+1)*d]); v > best {
				best = v
			}
		}
		return best
	}
	return score.UpperBound(s, n.mbrLo, n.mbrHi)
}

// UpperBoundAll returns a valid upper bound of the scorer over every indexed
// record (the root node's bound). The sharded engine uses it to prune whole
// shards from cross-shard strictly-higher-count probes: a shard whose global
// bound does not exceed the reference score cannot contribute.
func (x *Index) UpperBoundAll(s score.Scorer) float64 {
	if len(x.nodes) == 0 || x.ds.Len() == 0 {
		return math.Inf(-1)
	}
	sc := GetScratch()
	bulk, _ := s.(score.BulkScorer)
	ub := x.upperBound(s, score.IsMonotone(s), bulk, sc, &x.nodes[x.root])
	PutScratch(sc)
	return ub
}

// Query returns up to k records with the highest scores among records with
// arrival time in the closed window [t1, t2], ordered by (score desc, time
// desc). Returns nil when the window is empty or k <= 0.
func (x *Index) Query(s score.Scorer, k int, t1, t2 int64) []Item {
	lo, hi := x.ds.IndexRange(t1, t2)
	return x.QueryRange(s, k, lo, hi)
}

// QueryRange is Query over the half-open record index range [lo, hi).
func (x *Index) QueryRange(s score.Scorer, k int, lo, hi int) []Item {
	sc := GetScratch()
	out := x.QueryRangeInto(s, k, lo, hi, sc, nil)
	PutScratch(sc)
	return out
}

// QueryInto is Query with caller-provided working memory: the probe runs on
// sc's buffers and the result is appended to dst[:0] (pass nil to allocate).
// Results share dst's backing array; they remain valid after further probes
// with the same Scratch as long as the same dst is not reused.
func (x *Index) QueryInto(s score.Scorer, k int, t1, t2 int64, sc *Scratch, dst []Item) []Item {
	lo, hi := x.ds.IndexRange(t1, t2)
	return x.QueryRangeInto(s, k, lo, hi, sc, dst)
}

// QueryRangeInto is QueryRange with caller-provided working memory; see
// QueryInto. With a warmed Scratch and a reused dst the probe performs zero
// allocations.
func (x *Index) QueryRangeInto(s score.Scorer, k int, lo, hi int, sc *Scratch, dst []Item) []Item {
	m := sc.Merger(k)
	x.MergeRange(&m, s, lo, hi, 0)
	return m.Finish(dst)
}

// MergeRange continues m with the records of the half-open index range
// [lo, hi), reported under id+shift. The merge's current k-th item prunes the
// branch-and-bound from the first node on — the root included, so a tree that
// cannot improve a full merge costs one upper bound — which is what makes a
// merge over several indexes (a forest's chunk trees, the shards under a
// cross-shard region) cheaper than one top-k per index: later indexes descend
// only where they can still beat what earlier ones found. Inside a memo
// session of m's Scratch, node bounds and leaf scores are looked up rather
// than recomputed (see memo); the merged items are the same either way.
func (x *Index) MergeRange(m *Merger, s score.Scorer, lo, hi, shift int) {
	if hi > len(x.times) {
		hi = len(x.times)
	}
	if lo < 0 {
		lo = 0
	}
	if m.res.k <= 0 || lo >= hi {
		return
	}
	sc, res, sh := m.sc, m.res, int32(shift)
	monotone := score.IsMonotone(s)
	bulk, _ := s.(score.BulkScorer)
	mi := sc.memoFor(x)
	pq := nodePQ{es: sc.pq[:0]}
	rootUB := math.Inf(1)
	if len(res.items) == res.k {
		rootUB = x.nodeUB(s, monotone, bulk, sc, mi, x.root)
	}
	if maxT := x.times[hi-1]; res.wouldImprove(rootUB, maxT) {
		pq.push(pqEntry{node: x.root, ub: rootUB, maxT: maxT})
	}
	for pq.len() > 0 {
		e := pq.pop()
		if !res.wouldImprove(e.ub, e.maxT) {
			break // lexicographic PQ order: nothing left can improve
		}
		n := &x.nodes[e.node]
		clo, chi := maxi32(n.lo, int32(lo)), mini32(n.hi, int32(hi))
		if clo >= chi {
			continue
		}
		if n.left < 0 || int(chi-clo) <= x.opts.LengthThreshold {
			if n.left < 0 && mi != nil && x.memoLeaf(&res, s, bulk, sc, mi, e.node, clo, chi, sh) {
				continue
			}
			// Leaf or small clipped span: bulk-score the whole clipped span
			// into the scratch column, then merge into the k-heap.
			buf := sc.scoreBuf(int(chi - clo))
			x.scoreRows(buf, s, bulk, int(clo), int(chi))
			x.offerRows(&res, buf, clo, clo, chi, sh)
			continue
		}
		for _, c := range [2]int32{n.left, n.right} {
			cn := &x.nodes[c]
			cclo, cchi := maxi32(cn.lo, int32(lo)), mini32(cn.hi, int32(hi))
			if cclo >= cchi {
				continue
			}
			ub := x.nodeUB(s, monotone, bulk, sc, mi, c)
			maxT := x.times[cchi-1]
			if res.wouldImprove(ub, maxT) {
				pq.push(pqEntry{node: c, ub: ub, maxT: maxT})
			}
		}
	}
	// Hand the grown buffers back for the next call.
	m.res = res
	sc.pq = pq.es[:0]
}

// scoreRows scores records [lo, hi) into dst: one bulk call when the scorer has
// kernels (bulk non-nil), one Score call per record otherwise.
func (x *Index) scoreRows(dst []float64, s score.Scorer, bulk score.BulkScorer, lo, hi int) {
	if bulk != nil {
		bulk.ScoreRange(dst, x.flat, x.dims, lo, hi)
		return
	}
	d := x.dims
	for i := lo; i < hi; i++ {
		dst[i-lo] = s.Score(x.flat[i*d : (i+1)*d : (i+1)*d])
	}
}

// Member reports whether record id is in the top-k of the closed time window
// [t1, t2] under the paper's definition: fewer than k records in the window
// have a strictly higher score. The record's own time must lie in the
// window. It also returns the top-k items of the window (the second result
// the durable algorithms need anyway).
func (x *Index) Member(s score.Scorer, k int, t1, t2 int64, id int32) (bool, []Item) {
	items := x.Query(s, k, t1, t2)
	if len(items) < k {
		return true, items
	}
	return s.Score(x.ds.Attrs(int(id))) >= items[k-1].Score, items
}

// Stats describes a built index.
type Stats struct {
	Nodes          int
	SkylineNodes   int // nodes that retained a skyline summary
	SkylineEntries int
	MaxSkyline     int
}

// Stats returns summary statistics of the index structure.
func (x *Index) Stats() Stats {
	var st Stats
	st.Nodes = len(x.nodes)
	for i := range x.nodes {
		if sk := x.nodes[i].skyline; sk != nil {
			st.SkylineNodes++
			st.SkylineEntries += len(sk)
			if len(sk) > st.MaxSkyline {
				st.MaxSkyline = len(sk)
			}
		}
	}
	return st
}

func maxi32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func mini32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
