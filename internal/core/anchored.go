package core

import (
	"repro/internal/blocking"
	"repro/internal/data"
)

// This file implements the general-anchor extension sketched in the paper's
// §II: durability windows "anchored consistently relative to the arrival
// times", beyond the two end-anchored cases. A query with Anchor == General
// and 0 < Lead < Tau assesses each record p over the mid-anchored window
//
//	W(p.t) = [p.t - (Tau - Lead), p.t + Lead]
//
// of total length Tau. Lead == 0 degenerates to LookBack and Lead == Tau to
// LookAhead, which the engine runs as LookBack over a time-mirrored block.
//
// T-Hop and S-Base have one form each, the one here, which runs at every
// lead. S-Hop keeps its end-anchored form (shop.go) for lead 0: the general
// form below measured 1.06-2.37x slower there (same answers and probes; 10
// queries on 100 000 rows, a 2-core x86 host), because its coverage lives
// in a cover tree where the end-anchored form uses a blocking treap.
//
// Mid-anchored windows break the recency tie-break that makes the look-back
// algorithms safe under score ties: a window now extends to both sides of
// the record, so an equal-score record *can* fall inside it. The variants
// here therefore
//
//   - group equal-score runs in S-Base so records of one run never block
//     each other,
//   - defer blocking intervals of the current score level in S-Hop until
//     processing moves strictly below it, and
//   - enumerate potential score ties inside every hop gap in T-Hop before
//     skipping it (at lead 0 the recency tie-break already puts every such
//     tie among the items, so the scan is skipped).
//
// All three remain exact: they agree with BruteForceAnchored on arbitrary
// data (see anchored_test.go), degrading only in speed — never in
// correctness — on pathologically tie-heavy inputs.

// anchorSpan splits the query window length around the record: back before
// it, lead after it (back + lead == Tau).
func anchorSpan(q *Query) (back, lead int64) {
	return q.Tau - q.Lead, q.Lead
}

// runTHopAnchored is the Time-Hop algorithm (§III-B, Algorithm 1) over
// windows of any lead: visit records backwards through I, and after each
// failed durability check at time t hop past the gap (hopT, t) that the
// returned top-k items justify skipping. Every record q in the gap is
// provably non-durable: q's window contains all k items and each outranks
// q strictly — except for records tying the k-th score, which the gap scan
// below surfaces and checks individually when lead > 0. At lead 0 the hop
// lands on the most recent arrival among the items, and the number of
// building-block calls is O(|S| + k·ceil(|I|/tau)) (Lemma 1).
//
// Every iteration moves cur strictly down, so the walk ends even when a
// record fails its own check without being outranked (a NaN score).
func runTHopAnchored(v *spanBlock, pr *probe, q Query, st *Stats) []int32 {
	ds := v.ds
	back, lead := anchorSpan(&q)
	loIdx := ds.LowerBound(q.Start)
	cur := ds.UpperBound(q.End) - 1
	a := &pr.a
	a.reset()
	res := a.ids // the answer lives in the probe's arena, like S-Hop's
	for cur >= loIdx {
		st.Visited++
		t := ds.Time(cur)
		items := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(t, back), satAdd(t, lead))
		if v.member(q.Scorer, q.K, items, int32(cur)) {
			res = append(res, int32(cur))
			cur--
			continue
		}
		// Hop bound: the skip proof needs (a) gap records inside W(t),
		// (b) every item inside the gap record's window, and (c) no item
		// inside the gap itself.
		sk := items[q.K-1].Score
		maxAll := items[0].Time
		maxBelow := satSub(t, back) // fallback when no item arrives before t
		for _, it := range items {
			if it.Time > maxAll {
				maxAll = it.Time
			}
			if it.Time < t && it.Time > maxBelow {
				maxBelow = it.Time
			}
		}
		hopT := satSub(t, back)
		if maxBelow > hopT {
			hopT = maxBelow
		}
		if m := satSub(maxAll, lead); m > hopT {
			hopT = m
		}
		if hopT >= t {
			cur--
			continue
		}
		// Gap records scoring strictly above sk cannot exist (they would be
		// items themselves); records tying sk are not dominated by the items
		// and must be checked individually before the gap is skipped. The
		// scan is clipped to I — the gap may reach before Start, and records
		// there are skipped regardless of durability.
		gapLo := ds.UpperBound(hopT)
		if gapLo < loIdx {
			gapLo = loIdx
		}
		if lead > 0 && !checkGapTies(v, pr, &q, st, gapLo, cur, sk, &res) {
			// Potentially more ties than one probe returns: give up on this
			// hop and step normally. Correct, merely slower on tie floods.
			cur--
			continue
		}
		cur = gapLo - 1
	}
	a.ids = res
	if lead > 0 {
		sortIDs(res) // gap ties join out of order
	} else {
		reverse(res)
	}
	return res
}

// checkGapTies durability-checks every record in the half-open index range
// [gapLo, gapHi) whose score ties sk, appending durable ones to res. It
// reports false when the range may hold more tying records than one
// building-block probe can enumerate.
func checkGapTies(v *spanBlock, pr *probe, q *Query, st *Stats, gapLo, gapHi int, sk float64, res *[]int32) bool {
	if gapLo >= gapHi {
		return true
	}
	back, lead := anchorSpan(q)
	// The tie list stays live while the per-tie checks below issue further
	// probes, so it must not share the transient probe buffer.
	items := v.topkRangeKeep(pr, st, kindFind, q.Scorer, q.K, gapLo, gapHi)
	ties := 0
	for _, it := range items {
		if it.Score >= sk {
			ties++
		} else {
			break
		}
	}
	if ties == len(items) && len(items) == q.K {
		return false // the probe may have truncated the tie run
	}
	for _, it := range items[:ties] {
		st.Visited++
		t := it.Time
		w := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(t, back), satAdd(t, lead))
		if v.member(q.Scorer, q.K, w, it.ID) {
			*res = append(*res, it.ID)
		}
	}
	return true
}

// runSBaseAnchored is the score-prioritized baseline (§IV-A) over windows
// of any lead: sort all potential blockers of I, sweep in descending score,
// and decide durability from blocking-interval cover counts. A record p
// blocks exactly the arrival times whose window contains p, i.e.
// [p.t - Lead, p.t + back]. Equal-score runs are decided before any of their
// intervals are added, so ties never block each other; at lead 0 that is
// what sequential processing does under the recency tie-break. No
// building-block queries are issued; the O(n log n) sort dominates.
func runSBaseAnchored(v *spanBlock, q Query, st *Stats) []int32 {
	ds := v.ds
	back, lead := anchorSpan(&q)
	lo := ds.LowerBound(satSub(q.Start, back))
	hi := ds.UpperBound(satAdd(q.End, lead))
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
	for i := 0; i < len(refs); {
		j := i + 1 // a NaN score equals nothing, not even itself
		for j < len(refs) && refs[j].score == refs[i].score {
			j++
		}
		for _, p := range refs[i:j] {
			st.Visited++
			if p.time >= q.Start && p.time <= q.End && blk.Cover(p.time) < q.K {
				res = append(res, p.id)
			}
		}
		for _, p := range refs[i:j] {
			blk.Add(satSub(p.time, lead))
		}
		i = j
	}
	sortIDs(res)
	return res
}

// coverBlocks tracks blocking coverage over record positions for the
// mid-anchored Score-Hop. It combines two ideas:
//
//   - intervals whose score ties the level currently being processed are
//     deferred until processing moves strictly below that level, so equal
//     scores never block each other (mid-anchored windows reach both sides
//     of a record, voiding the look-back recency argument);
//   - coverage lives in a range-add/range-min tree over record positions,
//     so "is this whole sub-interval covered?" is one O(log n) query —
//     the general-anchor replacement for Lemma 6's abandonment rule.
//
// Durable answers are additionally "resolved" (their single position gets
// a +k poison) so an already-reported record never holds a sub-interval
// open.
type coverBlocks struct {
	tree *blocking.CoverTree
	ds   *data.Dataset
	tau  int64
	lead int64
	k    int

	pend      [][2]int // deferred index ranges of the current tie level
	pendScore float64
}

func newCoverBlocks(ds *data.Dataset, tau, lead int64, k int) *coverBlocks {
	return &coverBlocks{tree: blocking.NewCoverTree(ds.Len()), ds: ds, tau: tau, lead: lead, k: k}
}

// span converts a record arrival time into the index range its blocking
// interval [t-lead, t+back] covers.
func (c *coverBlocks) span(t int64) (lo, hi int) {
	left := satSub(t, c.lead)
	return c.ds.LowerBound(left), c.ds.UpperBound(satAdd(left, c.tau))
}

// flushBelow releases the deferred tie level once processing has moved
// strictly below its score.
func (c *coverBlocks) flushBelow(score float64) {
	if len(c.pend) > 0 && score < c.pendScore {
		for _, r := range c.pend {
			c.tree.Add(r[0], r[1], 1)
		}
		c.pend = c.pend[:0]
	}
}

// add records the blocking interval of a record arriving at t with the
// given score, while cur is the score level being processed.
func (c *coverBlocks) add(t int64, score, cur float64) {
	lo, hi := c.span(t)
	if score > cur {
		c.tree.Add(lo, hi, 1) // strictly above everything still to come
		return
	}
	if len(c.pend) > 0 && c.pendScore != score {
		for _, r := range c.pend {
			c.tree.Add(r[0], r[1], 1)
		}
		c.pend = c.pend[:0]
	}
	c.pendScore = score
	c.pend = append(c.pend, [2]int{lo, hi})
}

// resolve poisons one answered position so it never blocks abandonment.
func (c *coverBlocks) resolve(id int32) {
	c.tree.Add(int(id), int(id)+1, c.k)
}

// covered reports whether record position id is blocked k times.
func (c *coverBlocks) covered(id int32) bool {
	return c.tree.At(int(id)) >= c.k
}

// rangeCovered reports whether every record position with arrival time in
// the closed window [t1, t2] is blocked (or resolved) k times.
func (c *coverBlocks) rangeCovered(t1, t2 int64) bool {
	lo, hi := c.ds.IndexRange(t1, t2)
	return c.tree.Min(lo, hi) >= c.k
}

// runSHopAnchored generalizes Score-Hop (Algorithm 3) to mid-anchored
// windows: identical partition/heap/split machinery, with blocking
// intervals shifted to [p.t - Lead, p.t + back], tie-deferred so equal
// scores never block each other, and sub-interval abandonment re-proved by
// an explicit min-coverage query (Lemma 6's geometric shortcut only holds
// for end-anchored windows).
func runSHopAnchored(v *spanBlock, pr *probe, q Query, st *Stats) []int32 {
	back, lead := anchorSpan(&q)
	subLen := q.Tau
	if subLen < 1 {
		subLen = 1
	}
	// Prefetch lists, heap entries, the heap, the visited/answer marks and
	// the result ids are carved from the probe's arena, matching runSHop.
	a := &pr.a
	a.reset()
	h := &a.shop
	for lo := q.Start; lo <= q.End; lo = satAdd(lo, subLen) {
		hi := satAdd(lo, subLen-1)
		if hi > q.End {
			hi = q.End
		}
		shopPrefetch(v, pr, st, q.Scorer, q.K, lo, hi)
		if hi == q.End {
			break
		}
	}

	blk := newCoverBlocks(v.ds, q.Tau, lead, q.K)
	visited := a.visitedMap()
	inAnswer := a.markedMap()
	res := a.ids
	for h.len() > 0 {
		e := h.pop()
		p := e.current()
		st.Visited++
		blk.flushBelow(p.Score)
		if !blk.covered(p.ID) && !inAnswer[p.ID] {
			items := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(p.Time, back), satAdd(p.Time, lead))
			if v.member(q.Scorer, q.K, items, p.ID) {
				inAnswer[p.ID] = true
				res = append(res, p.ID)
				blk.resolve(p.ID)
			} else {
				for _, it := range items {
					if !visited[it.ID] {
						visited[it.ID] = true
						blk.add(it.Time, it.Score, p.Score)
					}
				}
			}
			shopSplit(v, pr, st, q.Scorer, q.K, e.lo, p.Time, e.hi)
		} else if e.pos+1 < len(e.items) {
			e.pos++
			h.push(e)
		} else if !blk.rangeCovered(e.lo, e.hi) {
			// Not yet fully covered: requery both halves around the current
			// record. Each split strictly shrinks the range, so the walk
			// terminates; fully covered sub-intervals are dropped, which is
			// the coverage-certified abandonment.
			shopSplit(v, pr, st, q.Scorer, q.K, e.lo, p.Time, e.hi)
		}
		if !visited[p.ID] {
			visited[p.ID] = true
			blk.add(p.Time, p.Score, p.Score)
		}
	}
	a.ids = res
	sortIDs(res)
	return res
}
