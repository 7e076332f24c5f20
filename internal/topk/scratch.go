package topk

import "sync"

// Scratch holds the reusable working memory of one range top-k probe: the
// k-heap backing, the branch-and-bound frontier, and the bulk-scoring column
// buffer. A single durable top-k evaluation issues hundreds of probes; by
// threading one Scratch through all of them (see package core) the probe hot
// path runs with zero steady-state allocations.
//
// A Scratch must not be shared by concurrent probes. Obtain one with
// GetScratch and return it with PutScratch, or embed a long-lived instance
// in a single-threaded caller.
type Scratch struct {
	heap   []Item    // k-heap item storage; checked out while a Merger is open
	pq     []pqEntry // frontier priority-queue storage
	scores []float64 // bulk leaf-scan score buffer
	gather []float64 // skyline upper-bound gather score buffer

	// gatherHits counts tree-descent upper bounds answered through the
	// bulk ScoreGather path (vs scalar skyline loops and MBR bounds); the
	// perf snapshots record it to prove the gather path is exercised.
	gatherHits int64

	// memo is the evaluation-scoped work memo; idle unless BeginMemo opened a
	// session.
	memo memo
}

var scratchPool = sync.Pool{New: func() interface{} { return new(Scratch) }}

// GetScratch returns a Scratch from the shared pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch ends sc's memo session, if one is open, and returns sc to the
// shared pool. The caller must not use sc afterwards.
func PutScratch(sc *Scratch) {
	if sc != nil {
		sc.memo.on = false
		scratchPool.Put(sc)
	}
}

// scoreBuf returns a scratch buffer of length n for bulk leaf scoring.
func (sc *Scratch) scoreBuf(n int) []float64 {
	if cap(sc.scores) < n {
		sc.scores = make([]float64, n)
	}
	return sc.scores[:n]
}

// gatherBuf returns a scratch buffer of length n for skyline gather scoring.
// It is distinct from scoreBuf because upper bounds are computed while a
// leaf scan's score column may still be live in the caller.
func (sc *Scratch) gatherBuf(n int) []float64 {
	if cap(sc.gather) < n {
		sc.gather = make([]float64, n)
	}
	return sc.gather[:n]
}

// GatherHits returns the number of skyline upper bounds this Scratch has
// answered through the bulk ScoreGather path since ResetCounters.
func (sc *Scratch) GatherHits() int64 { return sc.gatherHits }

// ResetCounters zeroes the instrumentation counters (buffers are kept).
func (sc *Scratch) ResetCounters() { sc.gatherHits = 0 }

// Merger is one top-k accumulation shared by a sequence of range probes: each
// MergeRange call (Index, View) continues the same k-heap, so the
// current k-th item bounds every later probe. Results are the top-k of the
// union of the merged ranges — arrival times are unique, so (score desc, time
// desc) is a total order and the answer does not depend on how the union was
// cut. Obtain one with Scratch.Merger and close it with Finish.
type Merger struct {
	sc  *Scratch
	res kHeap
}

// Merger opens a k-item merge on sc's heap storage. The storage is checked
// out until Finish: a probe that reuses sc in between (a building block of
// another package answering through QueryRangeInto) allocates its own instead
// of corrupting the merge.
func (sc *Scratch) Merger(k int) Merger {
	m := Merger{sc: sc, res: kHeap{k: k, items: sc.heap[:0]}}
	sc.heap = nil
	return m
}

// K returns the merge's k.
func (m *Merger) K() int { return m.res.k }

// Kth returns the merge's current k-th best item — the bar every further
// item must beat; ok is false while fewer than k items have been merged.
func (m *Merger) Kth() (it Item, ok bool) {
	if m.res.k <= 0 || len(m.res.items) < m.res.k {
		return Item{}, false
	}
	return m.res.items[0], true
}

// Offer merges one already-scored item.
func (m *Merger) Offer(it Item) {
	if m.res.k > 0 {
		m.res.offer(it)
	}
}

// Finish appends the merged items, best first, to dst[:0] (pass nil to
// allocate) and hands the heap storage back to the Scratch. The Merger must
// not be used afterwards.
func (m *Merger) Finish(dst []Item) []Item {
	out := append(dst[:0], m.res.sortedDesc()...)
	m.sc.heap = m.res.items[:0]
	return out
}
