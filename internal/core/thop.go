package core

// runTHop is the Time-Hop algorithm (§III-B, Algorithm 1): visit records
// backwards through I, and after each failed durability check hop directly
// to the most recent arrival among the window's top-k. Every record skipped
// by a hop is provably non-durable: its own window contains all k returned
// records, each of which outranks it (strictly, thanks to the recency
// tie-break of the building block). The number of building-block calls is
// O(|S| + k·ceil(|I|/tau)) (Lemma 1).
func runTHop(v *spanBlock, pr *probe, q Query, st *Stats) []int32 {
	ds := v.ds
	loIdx := ds.LowerBound(q.Start)
	cur := ds.UpperBound(q.End) - 1
	a := &pr.a
	a.reset()
	res := a.ids // the answer lives in the probe's arena, like S-Hop's
	for cur >= loIdx {
		st.Visited++
		t := ds.Time(cur)
		items := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(t, q.Tau), t)
		if v.member(q.Scorer, q.K, items, int32(cur)) {
			res = append(res, int32(cur))
			cur--
			continue
		}
		// Hop to the most recent arrival among the top-k. The failed check
		// guarantees it is strictly earlier than cur.
		maxT := items[0].Time
		for _, it := range items[1:] {
			if it.Time > maxT {
				maxT = it.Time
			}
		}
		cur = ds.At(maxT)
	}
	a.ids = res
	reverse(res)
	return res
}
