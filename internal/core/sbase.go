package core

import (
	"slices"

	"repro/internal/blocking"
)

// scoredRef is a record reference carrying its precomputed score, sortable
// by the canonical (score desc, time desc) order.
type scoredRef struct {
	id    int32
	time  int64
	score float64
}

// sortScoredDesc sorts by (score desc, time desc). slices.SortFunc rather
// than sort.Slice: same pattern-defeating quicksort, but generic, so the
// probe hot paths sort without the interface-boxing allocations. Arrival
// times are unique, so the comparator is a total order and the unstable sort
// is deterministic.
func sortScoredDesc(refs []scoredRef) {
	slices.SortFunc(refs, func(a, b scoredRef) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.time > b.time:
			return -1
		case a.time < b.time:
			return 1
		}
		return 0
	})
}

// runSBase is the score-prioritized baseline (§IV-A): sort every record of
// [Start - tau, End] by score and sweep once, deciding durability purely
// from blocking-interval cover counts. Records processed earlier always
// outrank later ones, so a record is tau-durable exactly when fewer than k
// blocking intervals cover its arrival. No building-block queries are
// issued; the O(n log n) sort dominates.
func runSBase(v *spanBlock, q Query, st *Stats) []int32 {
	ds := v.ds
	lo := ds.LowerBound(satSub(q.Start, q.Tau))
	hi := ds.UpperBound(q.End)
	if lo >= hi {
		return nil
	}
	refs := make([]scoredRef, 0, hi-lo)
	for i := lo; i < hi; i++ {
		refs = append(refs, scoredRef{
			id:    int32(i),
			time:  ds.Time(i),
			score: q.Scorer.Score(ds.Attrs(i)),
		})
	}
	st.CandidateCount = len(refs)
	sortScoredDesc(refs)

	blk := blocking.NewSet(q.Tau)
	var res []int32
	for _, p := range refs {
		st.Visited++
		if p.time >= q.Start && p.time <= q.End && blk.Cover(p.time) < q.K {
			res = append(res, p.id)
		}
		blk.Add(p.time)
	}
	sortIDs(res)
	return res
}

func sortIDs(ids []int32) {
	slices.Sort(ids)
}
