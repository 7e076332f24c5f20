package serve

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// ResultKey identifies one whole-query answer. Two requests with equal keys
// received identical answers, so a cached response can be replayed verbatim.
//
// Scorer is the canonical scorer key (score.CanonicalKey); requests whose
// scorer cannot be canonicalized are uncacheable and never reach the cache.
// Epoch is the engine's query-epoch sequence at evaluation time: it only
// grows, and changes whenever the underlying data changes (append, seal,
// freeze swap), so stale entries can never be returned — and since lookups
// only ever ask for the current epoch, the first store at a newer epoch drops
// the dataset's older entries (see PutResult). Start/End are the resolved
// interval (whole-span defaults already substituted), so an omitted interval
// and its explicit equivalent share an entry.
type ResultKey struct {
	Dataset       string
	Op            string
	Scorer        string
	K             int
	N             int
	Tau           int64
	Lead          int64
	Start         int64
	End           int64
	Anchor        core.Anchor
	Algorithm     core.Algorithm
	WithDurations bool
	Epoch         uint64
}

// resultEpoch is one dataset's resident whole-result entries; all of them
// carry the same epoch, the newest one stored so far.
type resultEpoch struct {
	epoch uint64
	keys  map[ResultKey]struct{}
}

// entry is one cached answer, the budget units it occupies and, for an
// encoded answer, its size in bytes.
type entry struct {
	key   ResultKey
	val   any
	cost  int
	bytes int
}

// bytesPerUnit is the encoded answer size one budget unit pays for — what 64
// result records of 40 bytes took when answers were cached as records, so a
// budget of N units bounds the same memory it always did. An answer cached as
// its encoded bytes ([]byte) costs 1 + len/bytesPerUnit units; any other value
// costs one. A cache of N units thus holds at most N answers and at most
// N × bytesPerUnit encoded bytes: its memory is bounded by what it holds, not
// by N × the largest answer.
const bytesPerUnit = 2560

// sizeOf returns the encoded size of a cached value: its length when it is an
// encoded answer, 0 otherwise.
func sizeOf(val any) int {
	if b, ok := val.([]byte); ok {
		return len(b)
	}
	return 0
}

// Cache is a bounded LRU of whole-query answers shared by every connection of
// a server, keyed by epoch: exact-match repeats at an unchanged epoch replay
// the answer with zero engine work. It is the only cross-query cache. Its
// budget is counted in units of bytesPerUnit encoded bytes, so many small
// answers and a few huge ones occupy what they actually hold.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int // budget, in units
	used    int // units held by resident entries
	bytes   int // encoded bytes held by resident entries
	items   map[ResultKey]*list.Element
	lru     *list.List // front = most recent
	evicted uint64

	// byDataset indexes the resident entries by dataset, with the epoch they
	// all share, so a store at a newer epoch can drop the superseded ones.
	// Maintained by PutResult and every removal path.
	byDataset map[string]*resultEpoch

	hits, misses uint64
	invalidated  uint64
}

// NewCache returns a cache bounded to max budget units (see bytesPerUnit);
// max < 1 is clamped to 1.
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:       max,
		items:     make(map[ResultKey]*list.Element),
		lru:       list.New(),
		byDataset: make(map[string]*resultEpoch),
	}
}

// GetResult returns the cached whole answer for key, if present. The value is
// shared with every other hit on key and must only be read.
func (c *Cache) GetResult(key ResultKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

// PutResult stores the whole answer for key, evicting the least recently used
// entries until its cost fits the budget (an answer costing more than the
// whole budget is not stored). Epochs only move forward, and lookups only
// ask for the current one, so an entry keyed on a superseded epoch can never
// hit again: the first store at a newer epoch drops the dataset's older
// entries (counted in Invalidated) rather than leaving them resident until
// LRU pressure, and a store at an older epoch — a slow evaluation finishing
// after the data moved on twice — is refused. A static dataset's epoch never
// changes, so its entries are unaffected. val is handed as is to every later
// hit, possibly on many goroutines at once: nothing may modify it after the
// store.
func (c *Cache) PutResult(key ResultKey, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	re := c.byDataset[key.Dataset]
	switch {
	case re == nil:
		re = &resultEpoch{epoch: key.Epoch, keys: make(map[ResultKey]struct{})}
		c.byDataset[key.Dataset] = re
	case key.Epoch < re.epoch:
		return
	case key.Epoch > re.epoch:
		for old := range re.keys {
			c.remove(c.items[old])
			c.invalidated++
		}
		re.epoch = key.Epoch
	}
	size := sizeOf(val)
	cost := 1 + size/bytesPerUnit
	if el, ok := c.items[key]; ok {
		// A refresh may change the cost: give the old units back first.
		c.remove(el)
	}
	if cost > c.max {
		return
	}
	for c.used+cost > c.max {
		c.remove(c.lru.Back())
		c.evicted++
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, val: val, cost: cost, bytes: size})
	c.used += cost
	c.bytes += size
	re.keys[key] = struct{}{}
}

// remove drops one resident entry and returns its units, under c.mu.
func (c *Cache) remove(el *list.Element) {
	e := c.lru.Remove(el).(*entry)
	delete(c.items, e.key)
	delete(c.byDataset[e.key.Dataset].keys, e.key)
	c.used -= e.cost
	c.bytes -= e.bytes
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries       int    // current entries
	Max           int    // capacity, in budget units
	Bytes         int    // encoded answer bytes currently resident
	Hits          uint64 // whole-result hits
	Misses        uint64 // whole-result misses
	PartialHits   uint64 // no producer; only the frozen benchmark/ reads it, and it leaves with the next benchmark-purpose PR
	PartialMisses uint64 // no producer; as PartialHits
	Evicted       uint64 // entries dropped by the budget
	Invalidated   uint64 // entries dropped because they could never hit again: results of a superseded epoch
}

// HitRate returns whole-result hits over lookups, or 0 with no lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.items),
		Max:         c.max,
		Bytes:       c.bytes,
		Hits:        c.hits,
		Misses:      c.misses,
		Evicted:     c.evicted,
		Invalidated: c.invalidated,
	}
}
