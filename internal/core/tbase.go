package core

import (
	"math"

	"repro/internal/score"
	"repro/internal/topk"
)

// tbaseStripe is how many rows runTBase scores in one bulk call. It bounds
// the scores a sweep computes and never reads — at most one stripe at each
// end of the window, whatever the query — and the memory a pooled probe
// keeps for them (two stripes, 8 KiB); it is large enough that the per-call
// cost of a scorer's bulk kernel disappears and small enough to stay in L1.
const tbaseStripe = 512

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
//
// The sweep itself runs on columns. It needs two things per record, a window
// start and a score, and both ends of the window only ever move towards older
// rows: the start is found once by binary search and then walked down the
// time column, and the scores of the expiring row i and of the entering rows
// j are read from two score stripes, each bulk-filled tbaseStripe rows at a
// time as its end of the window moves past the rows it holds. Most entering
// rows rank below a full buffer's last entry; those are turned away by one
// comparison, before an Item is built or offerItem called.
func runTBase(v *spanBlock, pr *probe, q Query, st *Stats) []int32 {
	ds := v.ds
	loIdx := ds.LowerBound(q.Start)
	hiIdx := ds.UpperBound(q.End) - 1
	if hiIdx < loIdx {
		return nil
	}
	st.Visited += hiIdx - loIdx + 1
	// The answer, the window buffer and the score stripes live in the probe's
	// arena.
	a := &pr.a
	a.reset()
	res := a.ids
	depth := 2 * q.K
	if depth < q.K {
		depth = math.MaxInt // 2k overflowed; no window is that deep anyway
	}
	times, flat, d := ds.Times(), ds.FlatAttrs(), ds.Dims()
	if a.stripes == nil {
		a.stripes = make([]float64, 2*tbaseStripe)
	}
	// exp holds the scores of rows [expLo, ...) up to the last row the sweep
	// asked it for, ent likewise for the entering side; both start empty. Rows
	// are only ever asked for in descending order, so a row below the stripe's
	// first is the signal to refill it with the tbaseStripe rows ending there.
	exp, ent := a.stripes[:tbaseStripe], a.stripes[tbaseStripe:]
	expLo, entLo := hiIdx+1, hiIdx+1

	// cur holds the best records of the current window, best first, at most
	// depth of them; every recomputation overwrites it in place.
	cur := a.items
	winLo := ds.LowerBound(satSub(times[hiIdx], q.Tau)) // oldest row of the window, walked down from here
	prevWinLo := hiIdx + 1                              // oldest row of the previous window; none yet
	var expScore float64                                // score of row i+1, the previous right endpoint, leaving the window

	for i := hiIdx; i >= loIdx; i-- {
		t := times[i]
		from := satSub(t, q.Tau)
		for winLo > 0 && times[winLo-1] >= from {
			winLo--
		}
		if i < hiIdx { // nothing leaves on the first step: cur is empty
			cur = removeItem(cur, topk.Item{ID: int32(i + 1), Time: times[i+1], Score: expScore})
		}
		// The window is rows [winLo, i]; before the entering rows
		// [winLo, prevWinLo) are merged the buffer covers rows [prevWinLo, i].
		if i == hiIdx || (len(cur) < q.K && len(cur) < i-prevWinLo+1) {
			cur = v.topkKeep(pr, st, kindMaint, q.Scorer, depth, from, t, cur)
		} else {
			for j := min(prevWinLo, i+1) - 1; j >= winLo; j-- {
				if j < entLo {
					entLo = max(j+1-tbaseStripe, 0)
					score.ScoreFlatRange(q.Scorer, ent, flat, d, entLo, j+1)
				}
				sj := ent[j-entLo]
				// Row j is older than every buffered row, so it ranks above the
				// last entry only by outscoring it. One that does not is dropped
				// unless the buffer is every row of (j, i] and has room: window
				// rows outside a partial buffer may outrank it.
				n := len(cur)
				if n > 0 && !(sj > cur[n-1].Score) && (n == depth || n != i-j) {
					continue
				}
				cur = offerItem(cur, depth, n == i-j, topk.Item{ID: int32(j), Time: times[j], Score: sj})
			}
		}
		prevWinLo = winLo
		if i < expLo {
			expLo = max(i+1-tbaseStripe, loIdx)
			score.ScoreFlatRange(q.Scorer, exp, flat, d, expLo, i+1)
		}
		expScore = exp[i-expLo]
		if len(cur) < q.K || expScore >= cur[q.K-1].Score {
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
