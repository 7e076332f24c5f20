package core

import (
	"repro/internal/blocking"
	"repro/internal/topk"
)

// arena is the per-query allocation arena carried by every probe. The
// score-prioritized strategies allocate heavily per query — S-Hop's
// prefetched top-k lists and heap entries, S-Band's scored candidate refs,
// the visited/answered marks, the blocking treap, the result ids — and all
// of it dies the moment the query returns. The arena keeps one reusable
// backing store for each of those shapes on the probe: a query carves what
// it needs, everything is freed wholesale by reset at the next query's
// start, and because probes are pooled (see newProbe) the storage survives
// across queries. With a warm arena an S-Hop evaluation runs with zero
// steady-state allocations (see TestRunSHopZeroAllocs).
//
// The carved objects hold no pointers beyond slice headers into the arena's
// own backing (topk.Item, shopEntry bounds and blocking nodes are plain
// data), so retaining the arena across queries cannot pin unrelated memory.
type arena struct {
	// items backs the retained prefetch lists (S-Hop sub-interval top-k
	// lists). Lists are carved by append; when the backing fills up a fresh,
	// larger array replaces it without copying — already-carved lists keep
	// the old array alive until the query ends, and steady state settles on
	// one array big enough for a whole query.
	items []topk.Item

	// entryChunks backs the S-Hop heap nodes. Entries are handed out from
	// fixed-size chunks so *shopEntry pointers stay stable while the arena
	// grows.
	entryChunks [][]shopEntry
	entryN      int

	shop shopHeap    // heap slice backing, reused across queries
	refs []scoredRef // S-Band scored-candidate backing

	visited map[int32]bool // records already seen / blocking-counted
	marked  map[int32]bool // records already reported durable
	ids     []int32        // result id accumulator

	stripes []float64 // T-Base's two score stripes, 2*tbaseStripe once used

	blk *blocking.Set // reusable blocking treap (slab-backed)
}

// entryChunkLen is the shopEntry chunk size; one chunk serves most queries.
const entryChunkLen = 64

// reset frees everything carved from the arena wholesale, keeping the
// backing storage for reuse. Called at the start of every strategy run.
func (a *arena) reset() {
	a.items = a.items[:0]
	a.entryN = 0
	a.shop.es = a.shop.es[:0]
	a.refs = a.refs[:0]
	a.ids = a.ids[:0]
	clear(a.visited)
	clear(a.marked)
}

// keep copies items into the arena and returns the arena-backed copy, valid
// until the next reset. Growth swaps in a fresh backing array instead of
// copying the old one: previously carved lists stay valid by keeping the old
// array alive through their own slice headers.
func (a *arena) keep(items []topk.Item) []topk.Item {
	if len(items) == 0 {
		return nil
	}
	if len(a.items)+len(items) > cap(a.items) {
		newCap := 2 * cap(a.items)
		if newCap < 256 {
			newCap = 256
		}
		for newCap < len(items) {
			newCap *= 2
		}
		a.items = make([]topk.Item, 0, newCap)
	}
	lo := len(a.items)
	a.items = a.items[:lo+len(items)]
	out := a.items[lo : lo+len(items) : lo+len(items)]
	copy(out, items)
	return out
}

// newEntry hands out a zeroed heap node with a stable address.
func (a *arena) newEntry() *shopEntry {
	ci, off := a.entryN/entryChunkLen, a.entryN%entryChunkLen
	if ci == len(a.entryChunks) {
		a.entryChunks = append(a.entryChunks, make([]shopEntry, entryChunkLen))
	}
	a.entryN++
	e := &a.entryChunks[ci][off]
	*e = shopEntry{}
	return e
}

// scoredRefs returns a zero-length scored-candidate slice with at least the
// given capacity.
func (a *arena) scoredRefs(n int) []scoredRef {
	if cap(a.refs) < n {
		a.refs = make([]scoredRef, 0, n)
	}
	return a.refs[:0]
}

// visitedMap returns the cleared visited-mark map.
func (a *arena) visitedMap() map[int32]bool {
	if a.visited == nil {
		a.visited = make(map[int32]bool, 64)
	}
	return a.visited
}

// markedMap returns the cleared answered-mark map.
func (a *arena) markedMap() map[int32]bool {
	if a.marked == nil {
		a.marked = make(map[int32]bool, 16)
	}
	return a.marked
}

// blocking returns the reusable blocking set, emptied and re-armed for
// intervals of length tau.
func (a *arena) blocking(tau int64) *blocking.Set {
	if a.blk == nil {
		a.blk = blocking.NewSet(tau)
		return a.blk
	}
	a.blk.Reset(tau)
	return a.blk
}
