package core

import (
	"repro/internal/skyband"
)

// runSBand is the Score-Band algorithm (§IV-B, Algorithm 2): retrieve a
// candidate superset C from the durable k-skyband index (a 3-sided priority
// search tree query I x [tau, +inf)), sort C by score, and sweep with the
// blocking mechanism. Unlike S-Base, records outside C can still outrank
// candidates, so a candidate covered by fewer than k blocking intervals
// needs a durability-check query; the check's top-k set also reveals the
// missing high-score blockers (Fig. 5). Monotone scorers only.
func runSBand(v *spanBlock, pr *probe, ladder *skyband.Ladder, q Query, st *Stats) []int32 {
	ds := v.ds
	cands := ladder.Candidates(q.K, q.Start, q.End, q.Tau)
	st.CandidateCount = len(cands)
	if len(cands) == 0 {
		return nil
	}
	// The candidate refs, visited marks, blocking treap and result ids are
	// all carved from the probe's per-query arena (see arena.go).
	a := &pr.a
	a.reset()
	refs := a.scoredRefs(len(cands))
	flat, d := ds.FlatAttrs(), ds.Dims()
	for _, id := range cands {
		i := int(id)
		refs = append(refs, scoredRef{
			id:    id,
			time:  ds.Time(i),
			score: q.Scorer.Score(flat[i*d : (i+1)*d : (i+1)*d]),
		})
	}
	a.refs = refs
	sortScoredDesc(refs)

	blk := a.blocking(q.Tau)
	visited := a.visitedMap()
	res := a.ids
	for _, p := range refs {
		st.Visited++
		if blk.Cover(p.time) < q.K {
			items := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(p.time, q.Tau), p.time)
			if v.member(q.Scorer, q.K, items, p.id) {
				res = append(res, p.id)
			} else {
				// Every returned record outranks p; make the discovered
				// blockers visible to future candidates.
				for _, it := range items {
					if !visited[it.ID] {
						visited[it.ID] = true
						blk.Add(it.Time)
					}
				}
			}
		}
		if !visited[p.id] {
			visited[p.id] = true
			blk.Add(p.time)
		}
	}
	a.ids = res
	sortIDs(res)
	return res
}
