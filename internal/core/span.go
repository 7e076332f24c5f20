package core

import (
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// spanBlock is the range top-k building block of a shard group: rows
// [rlo, rhi) of it — the span one query can read — answered from the
// overlapped shards' own indexes instead of an index built over the span
// (Jestes et al.: rank a segment once, merge prepared segments at query
// time). A probe continues one topk.Merger across the shards it touches, so
// each shard's branch-and-bound starts from the k-th item the earlier shards
// left and most of them prune at the root. Nothing is built on the query path: the forward block reads each
// shard engine's forward index, the mirrored block (look-ahead windows run as
// look-back over reversed time) each shard engine's own lazily built,
// persistent reversed() view.
//
// Block ids address the span: forward id i is global row rlo+i; mirrored id
// r is global row rhi-1-r, which shard sh's reversed view knows as
// r-(rhi-sh.hi) — mirrored shard-local ids shift by rhi-sh.hi, forward ones
// by sh.lo-rlo (either may be negative: spans start and end mid-shard).
// Times need no translation; a reversed view already stores them negated.
type spanBlock struct {
	g        *shardGroup
	ds       *data.Dataset // the span's rows in block order; resolves time windows
	rlo, rhi int
	mirrored bool
}

var (
	_ Block        = (*spanBlock)(nil)
	_ ScratchBlock = (*spanBlock)(nil)
)

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
	shards := b.g.shards
	m := sc.Merger(k)
	// A whole-query span over an LSM group can cover dozens of shards and
	// every probe walks them, so the walk starts at the shard owning glo.
	for si := b.g.shardAt(glo); si < len(shards) && shards[si].lo < ghi; si++ {
		sh := &shards[si]
		a, z := max(glo, sh.lo), min(ghi, sh.hi)
		if b.mirrored {
			dst = sh.eng.reversed().mergeRange(&m, s, sh.hi-z, sh.hi-a, b.rhi-sh.hi, sc, dst)
		} else {
			dst = sh.eng.fwd.mergeRange(&m, s, a-sh.lo, z-sh.lo, sh.lo-b.rlo, sc, dst)
		}
	}
	return m.Finish(dst)
}

// mergeRange continues m with the view's records [lo, hi), reported under
// id+shift. The tree index and a live tail's forest view continue the merge
// natively; any other building block (Options.NewBlock) answers a top-k of
// its own, which is re-offered item by item through tmp — the caller's result
// buffer, free until the merge finishes — and returned for reuse. The switch
// is on concrete types because m lives on the caller's stack: handed to an
// interface method it would escape, one allocation per probe.
func (v *view) mergeRange(m *topk.Merger, s score.Scorer, lo, hi, shift int, sc *topk.Scratch, tmp []topk.Item) []topk.Item {
	switch x := v.idx.(type) {
	case *topk.Index:
		x.MergeRange(m, s, lo, hi, shift)
	case *topk.View:
		x.MergeRange(m, s, lo, hi, shift)
	default:
		var items []topk.Item
		if v.into != nil {
			tmp = v.into.QueryRangeInto(s, m.K(), lo, hi, sc, tmp)
			items = tmp
		} else {
			items = v.idx.QueryRange(s, m.K(), lo, hi)
		}
		for _, it := range items {
			it.ID += int32(shift)
			m.Offer(it)
		}
	}
	return tmp
}
