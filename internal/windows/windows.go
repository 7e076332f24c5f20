// Package windows implements the two window-based top-k query types that the
// paper contrasts with durable top-k in Example I.1 (Fig. 1): tumbling-window
// top-k and sliding-window top-k, plus the "post-filter the sliding results"
// baseline of footnote 1.
//
// These utilities exist for comparison and case studies; they intentionally
// follow the classic streaming formulations, including their weaknesses
// (placement sensitivity for tumbling, result discontinuity and volume for
// sliding).
package windows

import (
	"sort"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// WindowResult is the top-k of one window placement.
type WindowResult struct {
	Start, End int64       // closed window bounds
	Items      []topk.Item // (score desc, time desc) order
}

// Querier is the fragment of the range top-k building block these utilities
// need; *topk.Index and an engine's core.Block (Engine.Index) satisfy it.
type Querier interface {
	Query(s score.Scorer, k int, t1, t2 int64) []topk.Item
}

// Tumbling partitions [start, end] into consecutive winLen-length windows
// anchored at origin and returns each non-empty window's top-k. Window
// boundaries are origin + i*winLen; the paper's case study shows how results
// shift as origin moves.
func Tumbling(idx Querier, s score.Scorer, k int, winLen, origin, start, end int64) []WindowResult {
	if winLen < 1 || start > end {
		return nil
	}
	// Align the first window to the origin grid.
	first := origin
	for first > start {
		first -= winLen
	}
	for first+winLen <= start {
		first += winLen
	}
	var out []WindowResult
	for lo := first; lo <= end; lo += winLen {
		hi := lo + winLen - 1
		items := idx.Query(s, k, lo, hi)
		if len(items) > 0 {
			out = append(out, WindowResult{Start: lo, End: hi, Items: items})
		}
	}
	return out
}

// Sliding slides a winLen-length window over [start, end], one placement per
// record arrival (the classic data-stream view: results change only when a
// record enters), and returns the top-k of each placement whose right
// endpoint lies in [start, end]. Maintenance is incremental in the spirit of
// the SMA algorithm of Mouratidis et al.: the top-k set is recomputed from
// scratch only when a member expires.
func Sliding(ds *data.Dataset, idx Querier, s score.Scorer, k int, winLen, start, end int64) []WindowResult {
	lo, hi := ds.IndexRange(start, end)
	if lo >= hi {
		return nil
	}
	var out []WindowResult
	var cur []topk.Item
	prevLo := -1
	for i := lo; i < hi; i++ {
		t := ds.Time(i)
		wlo := ds.LowerBound(t - winLen + 1)
		switch {
		case prevLo < 0:
			cur = idx.Query(s, k, t-winLen+1, t)
		case expired(cur, wlo):
			cur = idx.Query(s, k, t-winLen+1, t)
		default:
			cur = offer(cur, k, topk.Item{ID: int32(i), Time: t, Score: s.Score(ds.Attrs(i))})
		}
		prevLo = wlo
		snapshot := make([]topk.Item, len(cur))
		copy(snapshot, cur)
		out = append(out, WindowResult{Start: t - winLen + 1, End: t, Items: snapshot})
	}
	return out
}

func expired(items []topk.Item, wlo int) bool {
	for _, it := range items {
		if int(it.ID) < wlo {
			return true
		}
	}
	return false
}

func offer(items []topk.Item, k int, it topk.Item) []topk.Item {
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

// UnionIDs returns the distinct record ids appearing in any window result,
// ascending — the "union of all placements" answer set whose volume the
// paper criticizes for sliding windows.
func UnionIDs(results []WindowResult) []int {
	seen := map[int32]bool{}
	var ids []int
	for _, wr := range results {
		for _, it := range wr.Items {
			if !seen[it.ID] {
				seen[it.ID] = true
				ids = append(ids, int(it.ID))
			}
		}
	}
	sort.Ints(ids)
	return ids
}

// SlidingFilterDurable is the baseline of the paper's footnote 1: run the
// full sliding-window query and keep a record only when it is in the top-k
// of the window ending at its own arrival — which is exactly the durable
// top-k answer, obtained the expensive way (one placement per record).
func SlidingFilterDurable(ds *data.Dataset, idx Querier, s score.Scorer, k int, tau, start, end int64) []int {
	results := Sliding(ds, idx, s, k, tau+1, start, end)
	var ids []int
	for _, wr := range results {
		// The placement ending at time wr.End corresponds to the record
		// arriving at wr.End; it is durable iff it appears in that top-k
		// or the window holds fewer than k records.
		i := ds.At(wr.End)
		if i < 0 {
			continue
		}
		sc := s.Score(ds.Attrs(i))
		if len(wr.Items) < k || sc >= wr.Items[k-1].Score {
			ids = append(ids, i)
		}
	}
	return ids
}
