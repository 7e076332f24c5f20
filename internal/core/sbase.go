package core

import "slices"

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

func sortIDs(ids []int32) {
	slices.Sort(ids)
}
