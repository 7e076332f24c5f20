package core

import (
	"math"

	"repro/internal/topk"
)

// runTBase is the time-prioritized baseline (§III-A): visit every record in
// I from the newest backwards, maintaining the best items of the continuously
// sliding window [t - tau, t] incrementally in the spirit of the skyband
// maintenance algorithm of Mouratidis et al.
//
// The window's top-k is read off a buffer that is kept 2k deep: the expiring
// record is removed from it, and records entering on the old side of the
// window are merged in. The buffer always holds the best len(buffer) records
// of the window, so its first k are the window's top-k as long as k remain —
// or as long as the buffer is the whole window. Only when neither holds is it
// recomputed from scratch (one building-block query of depth 2k). Each
// recomputation restores k spare items and an expiry consumes at most one, so
// recomputations number about one per k durable records — not one per
// expiring member, which a k-deep buffer would need.
func runTBase(v *view, pr *probe, q Query, st *Stats) []int32 {
	ds := v.ds
	loIdx := ds.LowerBound(q.Start)
	hiIdx := ds.UpperBound(q.End) - 1
	if hiIdx < loIdx {
		return nil
	}
	// The answer and the window buffer live in the probe's arena: a sharded
	// evaluation runs T-Base once per shard interior and straddle region.
	a := &pr.a
	a.reset()
	res := a.ids
	depth := 2 * q.K
	if depth < q.K {
		depth = math.MaxInt // 2k overflowed; no window is that deep anyway
	}

	// cur holds the best records of the current window, best first, at most
	// depth of them; every recomputation overwrites it in place.
	cur := a.items
	prevWinLo := hiIdx + 1 // oldest record of the previous window; none yet
	var expiring topk.Item // the previous right endpoint, leaving the window

	for i := hiIdx; i >= loIdx; i-- {
		st.Visited++
		t := ds.Time(i)
		winLo := ds.LowerBound(satSub(t, q.Tau))
		cur = removeItem(cur, expiring) // nothing to remove on the first step: cur is empty
		// The window is rows [winLo, i]; before the entering rows
		// [winLo, prevWinLo) are merged the buffer covers rows [prevWinLo, i].
		if i == hiIdx || (len(cur) < q.K && len(cur) < i-prevWinLo+1) {
			cur = v.topkKeep(pr, st, kindMaint, q.Scorer, depth, satSub(t, q.Tau), t, cur)
		} else {
			for j := min(prevWinLo, i+1) - 1; j >= winLo; j-- {
				whole := len(cur) == i-j // the buffer is every row of (j, i]
				cur = offerItem(cur, depth, whole, topk.Item{
					ID:    int32(j),
					Time:  ds.Time(j),
					Score: q.Scorer.Score(ds.Attrs(j)),
				})
			}
		}
		prevWinLo = winLo
		expiring = topk.Item{ID: int32(i), Time: t, Score: q.Scorer.Score(ds.Attrs(i))}
		if len(cur) < q.K || expiring.Score >= cur[q.K-1].Score {
			res = append(res, int32(i))
		}
	}
	a.ids, a.items = res, cur[:0]
	reverse(res)
	return res
}

// removeItem deletes it from the (score desc, time desc) sorted list if it is
// there. A record ranking below the last entry is not, which is the common
// case and costs one comparison.
func removeItem(items []topk.Item, it topk.Item) []topk.Item {
	for pos := len(items) - 1; pos >= 0 && !topk.Better(items[pos], it); pos-- {
		if items[pos].ID == it.ID {
			return append(items[:pos], items[pos+1:]...)
		}
	}
	return items
}

// offerItem inserts it into the (score desc, time desc) sorted list of the
// best records of a window, keeping at most depth entries. An item ranking
// below the last entry is appended only when the list is the whole window;
// otherwise window records outside the list may outrank it.
func offerItem(items []topk.Item, depth int, whole bool, it topk.Item) []topk.Item {
	pos := len(items)
	for pos > 0 && topk.Better(it, items[pos-1]) {
		pos--
	}
	if pos == len(items) && (len(items) == depth || !whole) {
		return items
	}
	if len(items) < depth {
		items = append(items, topk.Item{})
	}
	copy(items[pos+1:], items[pos:])
	items[pos] = it
	return items
}

func reverse(s []int32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
