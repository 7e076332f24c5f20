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

// partialKey scopes a per-shard partial answer to its dataset: shard row
// ranges from different datasets must never collide.
type partialKey struct {
	dataset string
	key     core.PartialKey
}

// shardRef identifies one shard of one dataset — the invalidation unit. When
// the live lifecycle compacts or retires a shard, every partial entry keyed
// by its exact row range dies with it.
type shardRef struct {
	dataset string
	lo, hi  int
}

// ref returns the partial key's shard identity.
func (k partialKey) ref() shardRef {
	return shardRef{dataset: k.dataset, lo: k.key.ShardLo, hi: k.key.ShardHi}
}

// resultEpoch is one dataset's resident whole-result entries; all of them
// carry the same epoch, the newest one stored so far.
type resultEpoch struct {
	epoch uint64
	keys  map[ResultKey]struct{}
}

// entry is one cached value; key is the map key (ResultKey or partialKey).
type entry struct {
	key any
	val any
}

// Cache is a bounded LRU shared by every connection of a server. It holds two
// kinds of entries in one budget:
//
//   - whole-result entries (ResultKey): the full answer to a query, keyed by
//     epoch — exact-match repeats at an unchanged epoch replay it with zero
//     engine work;
//   - partial entries (core.PartialKey via Partial): the interior answer of
//     one sealed shard. Sealed shards are immutable, so these have no epoch
//     and stay valid across appends — a repeated query after the dataset has
//     grown re-evaluates only the tail and any shards it has not seen. They
//     are valid only while their shard stays in the engine's live set: the
//     Partial view implements core.PartialInvalidator, and a compaction or
//     retirement drops the departed shard's entries eagerly (without the
//     hook they would be unreachable-but-resident until LRU pressure — a
//     leak once shard identity can change).
//
// All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	max     int
	items   map[any]*list.Element
	lru     *list.List // front = most recent
	evicted uint64

	// byShard indexes the live partial entries by shard identity so
	// InvalidateShard drops exactly its shard's entries without scanning
	// the whole cache. Maintained by put and every removal path.
	byShard map[shardRef]map[partialKey]struct{}

	// byDataset indexes the resident whole-result entries by dataset, with
	// the epoch they all share, so a store at a newer epoch can drop the
	// superseded ones. Maintained by PutResult and every removal path.
	byDataset map[string]*resultEpoch

	hits, misses               uint64
	partialHits, partialMisses uint64
	invalidated                uint64
}

// NewCache returns a cache bounded to max entries (whole results and shard
// partials combined); max < 1 is clamped to 1.
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:       max,
		items:     make(map[any]*list.Element),
		lru:       list.New(),
		byShard:   make(map[shardRef]map[partialKey]struct{}),
		byDataset: make(map[string]*resultEpoch),
	}
}

// GetResult returns the cached whole answer for key, if present.
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
// entries if the cache is full. Epochs only move forward, and lookups only
// ask for the current one, so an entry keyed on a superseded epoch can never
// hit again: the first store at a newer epoch drops the dataset's older
// entries (counted in Invalidated) rather than leaving them resident until
// LRU pressure, and a store at an older epoch — a slow evaluation finishing
// after the data moved on twice — is refused. A static dataset's epoch never
// changes, so its entries are unaffected.
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
			c.invalidate(old)
		}
		clear(re.keys)
		re.epoch = key.Epoch
	}
	c.put(key, val)
	re.keys[key] = struct{}{}
}

// put inserts or refreshes under c.mu.
func (c *Cache) put(key, val any) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry).val = val
		c.lru.MoveToFront(el)
		return
	}
	for len(c.items) >= c.max {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.lru.Remove(back)
		bk := back.Value.(*entry).key
		delete(c.items, bk)
		c.unindex(bk)
		c.evicted++
	}
	c.items[key] = c.lru.PushFront(&entry{key: key, val: val})
	if pk, ok := key.(partialKey); ok {
		ref := pk.ref()
		set := c.byShard[ref]
		if set == nil {
			set = make(map[partialKey]struct{})
			c.byShard[ref] = set
		}
		set[pk] = struct{}{}
	}
}

// unindex removes an evicted key from its secondary index under c.mu.
func (c *Cache) unindex(key any) {
	pk, ok := key.(partialKey)
	if !ok {
		rk := key.(ResultKey)
		delete(c.byDataset[rk.Dataset].keys, rk)
		return
	}
	ref := pk.ref()
	if set := c.byShard[ref]; set != nil {
		delete(set, pk)
		if len(set) == 0 {
			delete(c.byShard, ref)
		}
	}
}

// invalidate drops one resident entry that can never hit again, under c.mu;
// the caller clears the secondary index it walked to find the key.
func (c *Cache) invalidate(key any) {
	if el, ok := c.items[key]; ok {
		c.lru.Remove(el)
		delete(c.items, key)
		c.invalidated++
	}
}

// invalidateShard drops every partial entry of one dataset shard; see
// core.PartialInvalidator.
func (c *Cache) invalidateShard(ref shardRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.byShard[ref]
	if len(set) == 0 {
		return
	}
	for pk := range set {
		c.invalidate(pk)
	}
	delete(c.byShard, ref)
}

// Partial returns a view of the cache implementing core.PartialCache — and
// core.PartialInvalidator, so the live lifecycle's compactions and
// retirements drop departed shards' entries eagerly — with every key scoped
// to dataset. Install it on that dataset's engine (SetPartialCache); the
// engine only consults it for immutable shards.
func (c *Cache) Partial(dataset string) core.PartialCache {
	return &partialView{c: c, dataset: dataset}
}

type partialView struct {
	c       *Cache
	dataset string
}

// InvalidateShard implements core.PartialInvalidator: shard [shardLo,
// shardHi) of this view's dataset left the engine's live set, so its interior
// entries can never be looked up again. Called under the engine's lifecycle
// lock — only the cache's own lock is taken, never back into the engine.
func (v *partialView) InvalidateShard(shardLo, shardHi int) {
	v.c.invalidateShard(shardRef{dataset: v.dataset, lo: shardLo, hi: shardHi})
}

// GetPartial implements core.PartialCache.
func (v *partialView) GetPartial(key core.PartialKey) ([]int32, bool) {
	c := v.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[partialKey{v.dataset, key}]; ok {
		c.lru.MoveToFront(el)
		c.partialHits++
		return el.Value.(*entry).val.([]int32), true
	}
	c.partialMisses++
	return nil, false
}

// PutPartial implements core.PartialCache. The engine hands over a fresh
// slice it will not mutate, so it is stored without copying.
func (v *partialView) PutPartial(key core.PartialKey, ids []int32) {
	c := v.c
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(partialKey{v.dataset, key}, ids)
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Entries       int    // current entries (results + partials)
	Max           int    // capacity
	Hits          uint64 // whole-result hits
	Misses        uint64 // whole-result misses
	PartialHits   uint64 // per-shard partial hits
	PartialMisses uint64 // per-shard partial misses
	Evicted       uint64 // entries dropped by the LRU bound
	Invalidated   uint64 // entries dropped because they could never hit again: partials whose shard left the live set, results of a superseded epoch
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
		Entries:       len(c.items),
		Max:           c.max,
		Hits:          c.hits,
		Misses:        c.misses,
		PartialHits:   c.partialHits,
		PartialMisses: c.partialMisses,
		Evicted:       c.evicted,
		Invalidated:   c.invalidated,
	}
}
