package core

import (
	"repro/internal/score"
	"repro/internal/topk"
)

// shopEntry is a max-heap element of S-Hop: one live sub-interval of I with
// its prefetched top-k list and a cursor into it. Entries live in the
// probe's arena (stable chunked storage), not on the general heap.
type shopEntry struct {
	items  []topk.Item // top-k of [lo, hi], best first (arena-backed)
	pos    int
	lo, hi int64 // closed sub-interval bounds
}

func (e *shopEntry) current() topk.Item { return e.items[e.pos] }

// shopHeap orders entries by their current item under (score desc, time
// desc). The backing slice lives in the probe's arena.
type shopHeap struct {
	es []*shopEntry
}

func (h *shopHeap) len() int { return len(h.es) }

func (h *shopHeap) push(e *shopEntry) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !topk.Better(h.es[i].current(), h.es[parent].current()) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *shopHeap) pop() *shopEntry {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es[last] = nil
	h.es = h.es[:last]
	n := len(h.es)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && topk.Better(h.es[l].current(), h.es[best].current()) {
			best = l
		}
		if r < n && topk.Better(h.es[r].current(), h.es[best].current()) {
			best = r
		}
		if best == i {
			break
		}
		h.es[i], h.es[best] = h.es[best], h.es[i]
		i = best
	}
	return top
}

// shopPrefetch runs one find query over the closed sub-interval [lo, hi] and
// pushes a heap entry for it when non-empty. The prefetched list outlives the
// transient probe buffer, so it is copied into the probe's arena; the heap
// entry comes from the arena too. A plain function (not a closure) so the
// S-Hop main loop stays allocation-free.
func shopPrefetch(v *spanBlock, pr *probe, st *Stats, s score.Scorer, k int, lo, hi int64) {
	if lo > hi {
		return
	}
	items := v.topk(pr, st, kindFind, s, k, lo, hi)
	if len(items) > 0 {
		e := pr.a.newEntry()
		e.items, e.lo, e.hi = pr.a.keep(items), lo, hi
		pr.a.shop.push(e)
	}
}

// runSHop is the Score-Hop algorithm (§IV-C, Algorithm 3): partition I into
// tau-length sub-intervals, prefetch each sub-interval's top-k, and process
// records globally in descending score order through a max-heap. A record
// covered by fewer than k blocking intervals triggers a durability check and
// splits its sub-interval at the record's timestamp (two fresh find
// queries); a blocked record merely advances its sub-interval's cursor — the
// hop in score domain. Building-block calls are O(|S| + k·ceil(|I|/tau))
// (Lemma 3). All retained per-query state — prefetch lists, heap entries,
// the heap itself, the visited/answer marks, the blocking treap and the
// result ids — is carved from the probe's arena, so a steady-state
// evaluation allocates nothing.
func runSHop(v *spanBlock, pr *probe, q Query, st *Stats) []int32 {
	subLen := q.Tau
	if subLen < 1 {
		subLen = 1
	}
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

	blk := a.blocking(q.Tau)
	visited := a.visitedMap()
	inAnswer := a.markedMap()
	res := a.ids
	for h.len() > 0 {
		e := h.pop()
		p := e.current()
		st.Visited++
		if blk.Cover(p.Time) < q.K {
			items := v.topk(pr, st, kindCheck, q.Scorer, q.K, satSub(p.Time, q.Tau), p.Time)
			if v.member(q.Scorer, q.K, items, p.ID) {
				if !inAnswer[p.ID] {
					inAnswer[p.ID] = true
					res = append(res, p.ID)
				}
			} else {
				for _, it := range items {
					if !visited[it.ID] {
						visited[it.ID] = true
						blk.Add(it.Time)
					}
				}
			}
			// Split the sub-interval at p.t; the prefetched list is
			// superseded by the two fresh halves.
			shopPrefetch(v, pr, st, q.Scorer, q.K, e.lo, p.Time-1)
			shopPrefetch(v, pr, st, q.Scorer, q.K, p.Time+1, e.hi)
		} else if e.pos+1 < len(e.items) {
			e.pos++
			h.push(e)
		}
		if !visited[p.ID] {
			visited[p.ID] = true
			blk.Add(p.Time)
		}
	}
	a.ids = res
	sortIDs(res)
	return res
}
