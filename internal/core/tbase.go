package core

import (
	"repro/internal/topk"
)

// runTBase is the time-prioritized baseline (§III-A): visit every record in
// I from the newest backwards, maintaining the top-k of the continuously
// sliding window [t - tau, t] incrementally in the spirit of the skyband
// maintenance algorithm of Mouratidis et al. The top-k set is recomputed
// from scratch (one building-block query) only when the expiring record was
// itself a member; entering records on the old side of the window are merged
// in O(log k).
func runTBase(v *view, pr *probe, q Query, st *Stats) []int32 {
	ds := v.ds
	loIdx := ds.LowerBound(q.Start)
	hiIdx := ds.UpperBound(q.End) - 1
	if hiIdx < loIdx {
		return nil
	}
	var res []int32

	// cur holds the top-k items of the current window, best first; every
	// from-scratch recomputation overwrites it in place.
	var cur []topk.Item
	prevWinLo := 0 // index of the oldest record in the previous window

	for i := hiIdx; i >= loIdx; i-- {
		st.Visited++
		t := ds.Time(i)
		winLo := ds.LowerBound(satSub(t, q.Tau))
		if i == hiIdx {
			cur = v.topkKeep(pr, st, kindMaint, q.Scorer, q.K, satSub(t, q.Tau), t, cur)
		} else {
			// The expiring record is the previous right endpoint i+1.
			if itemsContain(cur, int32(i+1)) {
				cur = v.topkKeep(pr, st, kindMaint, q.Scorer, q.K, satSub(t, q.Tau), t, cur)
			} else {
				// Entering records extend the window on the old side:
				// indices [winLo, prevWinLo).
				for j := winLo; j < prevWinLo && j <= i; j++ {
					cur = offerItem(cur, q.K, topk.Item{
						ID:    int32(j),
						Time:  ds.Time(j),
						Score: q.Scorer.Score(ds.Attrs(j)),
					})
				}
			}
		}
		prevWinLo = winLo
		if v.member(q.Scorer, q.K, cur, int32(i)) {
			res = append(res, int32(i))
		}
	}
	reverse(res)
	return res
}

func itemsContain(items []topk.Item, id int32) bool {
	for _, it := range items {
		if it.ID == id {
			return true
		}
	}
	return false
}

// offerItem inserts it into the (score desc, time desc) sorted top-k list,
// keeping at most k entries.
func offerItem(items []topk.Item, k int, it topk.Item) []topk.Item {
	if len(items) == k && !topk.Better(it, items[k-1]) {
		return items
	}
	pos := len(items)
	for pos > 0 && topk.Better(it, items[pos-1]) {
		pos--
	}
	if len(items) < k {
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
