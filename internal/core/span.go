package core

import (
	"sync"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// spanBlock is the range top-k building block of a span: rows [rlo, rhi) of
// the rows shards cover — the rows one query can read — answered from the
// overlapped shards' own indexes instead of an index built over the span
// (Jestes et al.: rank a segment once, merge prepared segments at query
// time). A probe continues one topk.Merger across the shards it touches, so
// each shard's branch-and-bound starts from the k-th item the earlier shards
// left and most of them prune at the root. Nothing is built and nothing kept
// on the query path: both blocks of a span read each shard engine's one
// index, the mirrored block (look-ahead windows run as look-back over
// reversed time) through its mirrored merge. A plain Engine's evaluation is a
// span over the engine as its one shard. Every strategy probes a spanBlock.
//
// Block ids address the span: forward id i is global row rlo+i; mirrored id
// r is global row rhi-1-r, which shard sh reports for its local row
// rhi-1-sh.lo-r (forward local ids shift by sh.lo-rlo; either may be negative:
// spans start and end mid-shard). Times need no translation: a mirrored merge
// reports them as ^t, as the span's mirrored columns store them.
type spanBlock struct {
	shards   []timeShard
	ds       *data.Dataset // the span's rows in block order; resolves time windows
	rlo, rhi int
	mirrored bool
}

// mirrorCols is the column storage of one span's time-mirrored rows. A span
// can be the whole dataset, and only a look-ahead evaluation in flight needs
// one, so the columns have a pool of their own: riding on the pooled probes
// would park a span-sized buffer on every probe in the process (measured:
// +10 MiB live heap on a 100k-row archive).
type mirrorCols struct {
	times []int64
	flat  []float64
}

var mirrorPool = sync.Pool{New: func() interface{} { return new(mirrorCols) }}

// queryRange answers the top-k of the span's rows [lo, hi) into dst, on sc.
func (b *spanBlock) queryRange(s score.Scorer, k int, lo, hi int, sc *topk.Scratch, dst []topk.Item) []topk.Item {
	lo, hi = max(lo, 0), min(hi, b.rhi-b.rlo)
	if k <= 0 || lo >= hi {
		return dst[:0]
	}
	glo, ghi := b.rlo+lo, b.rlo+hi // global rows probed
	if b.mirrored {
		glo, ghi = b.rhi-hi, b.rhi-lo
	}
	shards := b.shards
	m := sc.Merger(k)
	// A whole-query span over an LSM group can cover dozens of shards and
	// every probe walks them, so the walk starts at the shard owning glo.
	for si := shardAt(shards, glo); si < len(shards) && shards[si].lo < ghi; si++ {
		sh := &shards[si]
		a, z := max(glo, sh.lo), min(ghi, sh.hi)
		shift := sh.lo - b.rlo
		if b.mirrored {
			shift = b.rhi - 1 - sh.lo
		}
		sh.eng.mergeRange(&m, s, a-sh.lo, z-sh.lo, shift, b.mirrored)
	}
	return m.Finish(dst)
}

// topk runs one instrumented building-block query over the closed window
// [t1, t2]. The result is transient: it lives in pr's buffer and is
// overwritten by the next transient probe, so callers must finish consuming
// it first (use topkKeep to retain a result).
func (b *spanBlock) topk(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, t1, t2 int64) []topk.Item {
	pr.buf = b.topkKeep(pr, st, kind, s, k, t1, t2, pr.buf)
	return pr.buf
}

// topkKeep is topk for callers that retain the result beyond the next probe
// (T-Base's sliding top-k set): the result is written over dst — a buffer the
// caller owns, nil to allocate — and only the probe's internal working memory
// is shared.
func (b *spanBlock) topkKeep(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, t1, t2 int64, dst []topk.Item) []topk.Item {
	st.count(kind)
	lo, hi := b.ds.IndexRange(t1, t2)
	return b.queryRange(s, k, lo, hi, pr.sc, dst)
}

// topkRangeKeep is the probe over a half-open record index range, with a
// freshly allocated, retainable result.
func (b *spanBlock) topkRangeKeep(pr *probe, st *Stats, kind queryKind, s score.Scorer, k int, lo, hi int) []topk.Item {
	st.count(kind)
	return b.queryRange(s, k, lo, hi, pr.sc, nil)
}

// member reports whether record id (arriving at t2) is in the top-k of
// [t1, t2] given that window's top-k items.
func (b *spanBlock) member(s score.Scorer, k int, items []topk.Item, id int32) bool {
	if len(items) < k {
		return true
	}
	return s.Score(b.ds.Attrs(int(id))) >= items[k-1].Score
}

// mergeRange continues m with the engine's records [lo, hi), reported under
// id+shift — or, mirror set, as a time-reversed copy would report them: record
// i as id shift−i at time ^Time(i), ranked in the mirrored tie order (see
// topk.Index.MergeRangeMirrored). The switch is on concrete types because m
// lives on the caller's stack: handed to an interface method it would escape,
// one allocation per probe.
func (e *Engine) mergeRange(m *topk.Merger, s score.Scorer, lo, hi, shift int, mirror bool) {
	switch x := e.idx.(type) {
	case *topk.Index:
		if mirror {
			x.MergeRangeMirrored(m, s, lo, hi, shift)
		} else {
			x.MergeRange(m, s, lo, hi, shift)
		}
	case *topk.View:
		if mirror {
			x.MergeRangeMirrored(m, s, lo, hi, shift)
		} else {
			x.MergeRange(m, s, lo, hi, shift)
		}
	}
}
