package topk

import (
	"math"

	"repro/internal/score"
)

// memoRowBudget bounds the rows whose scores one memo session keeps: the
// score column and the rank column of a Scratch hold at most this many rows
// (12 bytes each), whatever the indexes it probes. Leaves met after the budget
// is spent are scanned without the memo. A constant rather than an option: it
// bounds the memory a pooled Scratch may retain, not a property of any query.
const memoRowBudget = 1 << 15

// memoIndexes bounds the indexes one memo session tracks (a sharded
// evaluation touches the shards' indexes, a live tail its forest's chunk
// trees). Indexes met after the table is full are probed without the memo.
// Per tracked index the session keeps 24 bytes per tree node.
const memoIndexes = 32

// memo is the evaluation-scoped work memo of a Scratch. One durable top-k
// evaluation holds one scorer and issues hundreds of overlapping probes, so
// the same node bounds and the same leaf scores are wanted again and again;
// inside a session (BeginMemo … PutScratch) each is computed once:
//
//   - a node's upper bound, on first use;
//   - a leaf's scores, in bulk over the whole leaf, on its first visit;
//   - a leaf's ranking by (score desc, arrival desc), lazily from its second
//     visit on: the leaf is heapified once and rows are popped only as deep as
//     some visit walks. A visit then walks the ranking best first, skips rows
//     outside its clipped range, and stops at the first row that cannot enter
//     the merge — under a total order no later row can either. A mirrored
//     probe (MergeRangeMirrored) ranks ties the other way, by arrival asc; a
//     leaf is ranked in the order of the probe visiting it and re-ranked when
//     a probe in the other order follows (a look-ahead evaluation switches
//     once, from its strategy's mirrored probes to its forward duration
//     searches).
//
// What is not memoized: clipped spans of internal nodes below LengthThreshold
// and a forest's unindexed buffer (both vary with the probe's range), leaves
// beyond the row budget, and indexes beyond the table. A leaf holding a NaN
// score is scored once but never ranked: NaN orders with nothing, so there is
// no ranking to walk and no sound early stop.
//
// Entries are keyed by the index's build-time id, not its pointer, so a pooled
// Scratch keeps no index reachable. Node entries carry the session generation
// that wrote them; a new session invalidates all of them by bumping it.
type memo struct {
	on     bool
	gen    uint32
	used   int       // rows carved from the budget this session
	scores []float64 // leaf score columns, memoRowBudget rows once allocated
	order  []int32   // leaf rank columns (leaf-local row offsets), parallel to scores
	tabs   []memoIndex
}

// memoIndex is one tracked index: its id and one entry per tree node.
type memoIndex struct {
	id    uint64
	nodes []memoNode
}

// memoNode is what a session knows about one tree node.
type memoNode struct {
	gen   uint32 // session that wrote the entry; any other value reads as empty
	flags uint8
	off   int32 // leaf: start of its columns in memo.scores / memo.order
	heap  int32 // ranked leaf: rows still in the lazy heap, order[off : off+heap]
	ub    float64
}

const (
	memoHasUB    uint8 = 1 << iota // ub is valid
	memoScored                     // the leaf's score column is filled
	memoRanked                     // the leaf's rank column is heapified
	memoNaN                        // the leaf holds a NaN score: never ranked
	memoMirrored                   // the rank column breaks ties by arrival asc
)

// BeginMemo opens a memo session on sc: until PutScratch, every probe that
// runs on sc must use the same scorer, and work shared between probes is done
// once (see memo). Probes outside a session are unaffected.
func (sc *Scratch) BeginMemo() {
	mm := &sc.memo
	if mm.gen == math.MaxUint32 {
		// The generation is about to wrap, and entries of old sessions could
		// then read as current: drop the node tables with them.
		*mm = memo{scores: mm.scores, order: mm.order}
	}
	mm.gen++
	mm.on = true
	mm.used = 0
	mm.tabs = mm.tabs[:0]
}

// memoFor returns the session's entry table for x, claiming a slot on x's
// first probe; nil outside a session or when the table is full.
func (sc *Scratch) memoFor(x *Index) *memoIndex {
	mm := &sc.memo
	if !mm.on {
		return nil
	}
	for i := range mm.tabs {
		if mm.tabs[i].id == x.id {
			return &mm.tabs[i]
		}
	}
	if len(mm.tabs) == memoIndexes {
		return nil
	}
	if cap(mm.tabs) == 0 {
		mm.tabs = make([]memoIndex, 0, memoIndexes)
	}
	mm.tabs = mm.tabs[:len(mm.tabs)+1]
	mi := &mm.tabs[len(mm.tabs)-1]
	mi.id = x.id
	if cap(mi.nodes) < len(x.nodes) {
		mi.nodes = make([]memoNode, len(x.nodes))
	}
	mi.nodes = mi.nodes[:len(x.nodes)]
	return mi
}

// entry returns node c's entry, emptied if another session wrote it.
func (mm *memo) entry(mi *memoIndex, c int32) *memoNode {
	mn := &mi.nodes[c]
	if mn.gen != mm.gen {
		*mn = memoNode{gen: mm.gen}
	}
	return mn
}

// nodeUB is upperBound through the session memo (mi may be nil).
func (x *Index) nodeUB(s score.Scorer, monotone bool, bulk score.BulkScorer, sc *Scratch, mi *memoIndex, c int32) float64 {
	if mi == nil {
		return x.upperBound(s, monotone, bulk, sc, &x.nodes[c])
	}
	mn := sc.memo.entry(mi, c)
	if mn.flags&memoHasUB == 0 {
		mn.ub = x.upperBound(s, monotone, bulk, sc, &x.nodes[c])
		mn.flags |= memoHasUB
	}
	return mn.ub
}

// memoLeaf merges rows [clo, chi) of leaf c into res through the session
// memo, reported forward or mirrored (see Index.mergeRange), and reports
// false — nothing merged — when the leaf is not memoized and does not fit
// what is left of the row budget.
func (x *Index) memoLeaf(res *kHeap, s score.Scorer, bulk score.BulkScorer, sc *Scratch, mi *memoIndex, c, clo, chi, shift int32, mirror bool) bool {
	mm := &sc.memo
	mn := mm.entry(mi, c)
	n := &x.nodes[c]
	span := int(n.hi - n.lo)
	first := mn.flags&memoScored == 0
	if first {
		if mm.used+span > memoRowBudget {
			return false
		}
		if mm.scores == nil {
			mm.scores = make([]float64, memoRowBudget)
			mm.order = make([]int32, memoRowBudget)
		}
		mn.off = int32(mm.used)
		mm.used += span
	}
	col := mm.scores[mn.off : int(mn.off)+span]
	if first {
		x.scoreRows(col, s, bulk, int(n.lo), int(n.hi))
		mn.flags |= memoScored
		for _, v := range col {
			if v != v {
				mn.flags |= memoNaN
				break
			}
		}
	}
	if first || mn.flags&memoNaN != 0 {
		// Arrival order, as without a memo: ranking pays from the second
		// visit on, and never for a leaf whose scores do not all compare.
		x.offerRows(res, col, n.lo, clo, chi, shift, mirror)
		return true
	}
	ord := mm.order[mn.off : int(mn.off)+span]
	if mn.flags&memoRanked == 0 || (mn.flags&memoMirrored != 0) != mirror {
		for i := range ord {
			ord[i] = int32(i)
		}
		for i := span/2 - 1; i >= 0; i-- {
			siftDownRank(ord, col, i, mirror)
		}
		mn.heap = int32(span)
		mn.flags |= memoRanked
		if mirror {
			mn.flags |= memoMirrored
		} else {
			mn.flags &^= memoMirrored
		}
	}
	// ord[h:] holds the rows popped so far, best last; ord[:h] is a max-heap
	// of the rest. Walking from the back, each step past h pops one more row.
	// A mirrored row i is reported as id shift−i at time −Time(i): sign folds
	// both directions into one walk.
	h := int(mn.heap)
	rlo, rhi := clo-n.lo, chi-n.lo
	sign := int32(1)
	if mirror {
		sign = -1
	}
	for pos := span - 1; pos >= 0; pos-- {
		if pos < h {
			h--
			ord[0], ord[h] = ord[h], ord[0]
			siftDownRank(ord[:h], col, 0, mirror)
		}
		r := ord[pos]
		t := int64(sign) * x.times[n.lo+r]
		if !res.wouldImprove(col[r], t) {
			break
		}
		if r >= rlo && r < rhi {
			res.offer(Item{ID: shift + sign*(n.lo+r), Time: t, Score: col[r]})
		}
	}
	mn.heap = int32(h)
	return true
}

// offerRows offers rows [clo, chi) of the leaf starting at row lo, with their
// scores read from the leaf's column col: in arrival order, or mirrored in
// reverse arrival order — the order a mirrored copy's leaf would scan them.
func (x *Index) offerRows(res *kHeap, col []float64, lo, clo, chi, shift int32, mirror bool) {
	if mirror {
		for i := chi - 1; i >= clo; i-- {
			res.offer(Item{ID: shift - i, Time: -x.times[i], Score: col[i-lo]})
		}
		return
	}
	for i := clo; i < chi; i++ {
		res.offer(Item{ID: i + shift, Time: x.times[i], Score: col[i-lo]})
	}
}

// siftDownRank restores, from position i, the max-heap of leaf-local rows ord
// under (score desc, arrival desc) — arrival asc when mirror is set; within a
// leaf a later row arrives later.
func siftDownRank(ord []int32, col []float64, i int, mirror bool) {
	n := len(ord)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && rankBefore(col, ord[l], ord[best], mirror) {
			best = l
		}
		if r < n && rankBefore(col, ord[r], ord[best], mirror) {
			best = r
		}
		if best == i {
			return
		}
		ord[i], ord[best] = ord[best], ord[i]
		i = best
	}
}

func rankBefore(col []float64, a, b int32, mirror bool) bool {
	if col[a] != col[b] {
		return col[a] > col[b]
	}
	return (a > b) != mirror
}
