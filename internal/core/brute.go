package core

import (
	"repro/internal/data"
	"repro/internal/score"
)

// BruteForce evaluates DurTop(k, I, tau) directly from the definition (§II):
// record p is tau-durable iff fewer than k records in its anchored window
// score strictly higher (a NaN score ranks below every real one; see
// outranks). O(n·w) time; the reference oracle for tests and the
// slowest baseline in the benchmarks. For mid-anchored windows pass General
// and use BruteForceAnchored.
func BruteForce(ds *data.Dataset, s score.Scorer, k int, tau, start, end int64, anchor Anchor) []int {
	lead := int64(0)
	if anchor == LookAhead {
		lead = tau
	}
	return BruteForceAnchored(ds, s, k, tau, lead, start, end)
}

// outranks reports whether score a counts as strictly higher than b. NaN
// orders with nothing, so the oracle settles it the way every strategy's
// membership test (score >= k-th) does once a window holds k real scores: a
// NaN score ranks below every real one and never outranks anything.
func outranks(a, b float64) bool {
	return a > b || (b != b && a == a)
}

// BruteForceAnchored is BruteForce for the general anchor of §II: each
// record p is assessed over the window [p.t - (tau - lead), p.t + lead].
func BruteForceAnchored(ds *data.Dataset, s score.Scorer, k int, tau, lead, start, end int64) []int {
	scores := make([]float64, ds.Len())
	for i := range scores {
		scores[i] = s.Score(ds.Attrs(i))
	}
	back := tau - lead
	var res []int
	lo, hi := ds.IndexRange(start, end)
	for i := lo; i < hi; i++ {
		t := ds.Time(i)
		wlo, whi := ds.IndexRange(satSub(t, back), satAdd(t, lead))
		higher := 0
		for j := wlo; j < whi; j++ {
			if outranks(scores[j], scores[i]) {
				higher++
				if higher >= k {
					break
				}
			}
		}
		if higher < k {
			res = append(res, i)
		}
	}
	return res
}

// BruteMaxDuration computes the exact maximum durability of record id by a
// linear backward (or forward, for LookAhead) scan; the oracle for
// Engine.MaxDuration.
func BruteMaxDuration(ds *data.Dataset, s score.Scorer, k int, id int, anchor Anchor) (int64, bool) {
	base := s.Score(ds.Attrs(id))
	higher := 0
	if anchor == LookBack {
		for j := id - 1; j >= 0; j-- {
			if outranks(s.Score(ds.Attrs(j)), base) {
				higher++
				if higher == k {
					return ds.Time(id) - ds.Time(j) - 1, false
				}
			}
		}
		return ds.Time(id) - ds.Time(0), true
	}
	for j := id + 1; j < ds.Len(); j++ {
		if outranks(s.Score(ds.Attrs(j)), base) {
			higher++
			if higher == k {
				return ds.Time(j) - ds.Time(id) - 1, false
			}
		}
	}
	return ds.Time(ds.Len()-1) - ds.Time(id), true
}
