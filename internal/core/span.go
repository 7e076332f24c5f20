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
// span over the engine as its one shard.
//
// Block ids address the span: forward id i is global row rlo+i; mirrored id
// r is global row rhi-1-r, which shard sh reports for its local row
// rhi-1-sh.lo-r (forward local ids shift by sh.lo-rlo; either may be negative:
// spans start and end mid-shard). Times need no translation: a mirrored merge
// reports them negated, as the span's mirrored columns store them.
type spanBlock struct {
	shards   []timeShard
	ds       *data.Dataset // the span's rows in block order; resolves time windows
	rlo, rhi int
	mirrored bool
}

var (
	_ Block        = (*spanBlock)(nil)
	_ ScratchBlock = (*spanBlock)(nil)
)

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

func (b *spanBlock) Query(s score.Scorer, k int, t1, t2 int64) []topk.Item {
	lo, hi := b.ds.IndexRange(t1, t2)
	return b.QueryRange(s, k, lo, hi)
}

func (b *spanBlock) QueryRange(s score.Scorer, k int, lo, hi int) []topk.Item {
	sc := topk.GetScratch()
	out := b.QueryRangeInto(s, k, lo, hi, sc, nil)
	topk.PutScratch(sc)
	return out
}

func (b *spanBlock) QueryInto(s score.Scorer, k int, t1, t2 int64, sc *topk.Scratch, dst []topk.Item) []topk.Item {
	lo, hi := b.ds.IndexRange(t1, t2)
	return b.QueryRangeInto(s, k, lo, hi, sc, dst)
}

func (b *spanBlock) QueryRangeInto(s score.Scorer, k int, lo, hi int, sc *topk.Scratch, dst []topk.Item) []topk.Item {
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
		dst = sh.eng.fwd.mergeRange(&m, s, a-sh.lo, z-sh.lo, shift, b.mirrored, sc, dst)
	}
	return m.Finish(dst)
}

// mergeRange continues m with the view's records [lo, hi), reported under
// id+shift — or, mirror set, as a time-reversed copy would report them: record
// i as id shift−i at time −Time(i), ranked in the mirrored tie order (see
// topk.Index.MergeRangeMirrored). The tree index and a live tail's forest view
// continue the merge natively; any other building block (Options.NewBlock)
// answers a top-k of its own, which is re-offered item by item through tmp —
// the caller's result buffer, free until the merge finishes — and returned for
// reuse. The switch is on concrete types because m lives on the caller's
// stack: handed to an interface method it would escape, one allocation per
// probe.
func (v *view) mergeRange(m *topk.Merger, s score.Scorer, lo, hi, shift int, mirror bool, sc *topk.Scratch, tmp []topk.Item) []topk.Item {
	switch x := v.idx.(type) {
	case *topk.Index:
		if mirror {
			x.MergeRangeMirrored(m, s, lo, hi, shift)
		} else {
			x.MergeRange(m, s, lo, hi, shift)
		}
		return tmp
	case *topk.View:
		if mirror {
			x.MergeRangeMirrored(m, s, lo, hi, shift)
		} else {
			x.MergeRange(m, s, lo, hi, shift)
		}
		return tmp
	}
	// A foreign block ranks ties forward only. The mirrored top-k differs
	// from the forward one only inside the tie group of the k-th score, so a
	// mirrored probe widens the forward one until that group is whole — the
	// last item scores below the k-th, or the range is exhausted — and lets
	// the merge re-rank what it returned.
	k := m.K()
	if k <= 0 {
		return tmp
	}
	want := k
	for {
		var items []topk.Item
		if v.into != nil {
			tmp = v.into.QueryRangeInto(s, want, lo, hi, sc, tmp)
			items = tmp
		} else {
			items = v.idx.QueryRange(s, want, lo, hi)
		}
		if !mirror {
			for _, it := range items {
				it.ID += int32(shift)
				m.Offer(it)
			}
			return tmp
		}
		if len(items) < want || want >= hi-lo || items[want-1].Score != items[k-1].Score {
			for _, it := range items {
				m.Offer(topk.Item{ID: int32(shift) - it.ID, Time: -it.Time, Score: it.Score})
			}
			return tmp
		}
		want = min(2*want, hi-lo)
	}
}
