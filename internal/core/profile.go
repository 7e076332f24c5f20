package core

import (
	"sort"

	"repro/internal/blocking"
	"repro/internal/data"
	"repro/internal/score"
)

// DurabilityRecord reports how long one record remained in the top-k of its
// anchored window (§II's "maximum duration", computed in bulk).
type DurabilityRecord struct {
	ID       int
	Time     int64
	Score    float64
	Duration int64
	// FullHistory marks records that stayed top-k across all recorded
	// history on their window side; Duration is then truncated at the
	// dataset boundary.
	FullHistory bool
}

// DurabilityProfile computes, for every record, the maximum tau for which it
// is in the top-k under the scorer, in a single O(n log n) sweep: records
// are processed in descending (score, time) order, and each record's k-th
// most recent strictly-higher-scoring predecessor is located with one
// order-statistic query over the already-processed arrival times. Results
// are in ascending time order.
//
// The sweep is the bulk counterpart of Engine.MaxDuration (binary search per
// record) and powers "most durable records of all time" reports.
func (e *Engine) DurabilityProfile(k int, s score.Scorer, anchor Anchor) ([]DurabilityRecord, error) {
	if k < 1 {
		return nil, ErrBadK
	}
	if s == nil {
		return nil, ErrNoScorer
	}
	if s.Dims() != e.fwd.ds.Dims() {
		return nil, ErrDims
	}
	return durabilitySweep(e.fwd.ds, k, s, anchor == LookAhead), nil
}

// durabilitySweep is the profile core. It needs only times and scores, so a
// look-ahead profile (ahead set) is the same sweep over negated times, in
// mirrored order: a window [p.t, p.t+tau] is [-p.t-tau, -p.t] in mirrored
// time. Records keep their ids and report their own times.
func durabilitySweep(ds *data.Dataset, k int, s score.Scorer, ahead bool) []DurabilityRecord {
	n := ds.Len()
	refs := make([]scoredRef, n)
	for j := range refs {
		i := j
		if ahead {
			i = n - 1 - j
		}
		refs[j] = scoredRef{id: int32(i), time: ds.Time(i), score: s.Score(ds.Attrs(i))}
		if ahead {
			refs[j].time = -refs[j].time
		}
	}
	sortScoredDesc(refs)

	firstTime := ds.Time(0) // the first arrival in the sweep's time
	if ahead {
		firstTime = -ds.Time(n - 1)
	}
	out := make([]DurabilityRecord, n)
	// times holds the arrival times of strictly-higher-scoring records; a
	// zero-length "interval" set is a plain order-statistic multiset.
	times := blocking.NewSet(0)
	for gs := 0; gs < n; {
		// Records with equal scores neither bound each other's durability,
		// so resolve the whole tie group before inserting any member.
		ge := gs
		for ge < n && refs[ge].score == refs[gs].score {
			ge++
		}
		for _, p := range refs[gs:ge] {
			rec := DurabilityRecord{ID: int(p.id), Time: ds.Time(int(p.id)), Score: p.score}
			if tk, ok := times.KthLargestLE(p.time, k); ok {
				rec.Duration = p.time - tk - 1
			} else {
				rec.Duration = p.time - firstTime
				rec.FullHistory = true
			}
			out[p.id] = rec
		}
		for _, p := range refs[gs:ge] {
			times.Add(p.time)
		}
		gs = ge
	}
	return out
}

// MostDurable returns the top-n records by durability under the scorer:
// records that were top-k over their entire recorded history rank first
// (longest span first), then finite durations descending, ties broken by
// recency. This is the "records that stood the test of time" report of the
// paper's introduction.
func (e *Engine) MostDurable(k int, s score.Scorer, anchor Anchor, n int) ([]DurabilityRecord, error) {
	profile, err := e.DurabilityProfile(k, s, anchor)
	if err != nil {
		return nil, err
	}
	return mostDurable(profile, n), nil
}

// mostDurable sorts a profile by the durability report order and truncates
// it to the top n.
func mostDurable(profile []DurabilityRecord, n int) []DurabilityRecord {
	sort.Slice(profile, func(i, j int) bool {
		a, b := profile[i], profile[j]
		if a.FullHistory != b.FullHistory {
			return a.FullHistory
		}
		if a.Duration != b.Duration {
			return a.Duration > b.Duration
		}
		return a.Time > b.Time
	})
	if n > 0 && n < len(profile) {
		profile = profile[:n]
	}
	return profile
}
