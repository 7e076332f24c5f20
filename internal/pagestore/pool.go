package pagestore

import (
	"container/list"
	"errors"
	"fmt"
)

// ErrPoolFull reports that every frame is pinned and none can be evicted.
var ErrPoolFull = errors.New("pagestore: buffer pool exhausted (all frames pinned)")

// PoolStats counts buffer pool traffic. Reads is the number of backing-store
// page reads (cache misses) — the primary cost metric of the DBMS
// experiments.
type PoolStats struct {
	Fetches    int // page requests
	Hits       int // served from memory
	Reads      int // backing reads (misses)
	Writebacks int // dirty evictions + flushes
	Evictions  int
}

// Frame is a pinned in-memory page. Callers must Unpin every fetched frame.
type Frame struct {
	ID    PageID
	Data  []byte // PageSize bytes, aliased by the pool
	pins  int
	dirty bool
	elem  *list.Element
}

// BufferPool caches pages of a MemBacking with LRU replacement over
// unpinned frames. Not safe for concurrent use.
type BufferPool struct {
	backing  *MemBacking
	capacity int
	frames   map[PageID]*Frame
	lru      *list.List // front = most recently used; holds *Frame
	stats    PoolStats
}

// NewBufferPool wraps backing with a pool of the given frame capacity
// (minimum 4, so multi-page operations can pin simultaneously).
func NewBufferPool(backing *MemBacking, capacity int) *BufferPool {
	if capacity < 4 {
		capacity = 4
	}
	return &BufferPool{
		backing:  backing,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		lru:      list.New(),
	}
}

// Capacity returns the pool's frame capacity.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Stats returns a copy of the traffic counters.
func (bp *BufferPool) Stats() PoolStats { return bp.stats }

// ResetStats zeroes the traffic counters.
func (bp *BufferPool) ResetStats() { bp.stats = PoolStats{} }

// Fetch pins page id into memory, reading it from the backing store on a
// miss.
func (bp *BufferPool) Fetch(id PageID) (*Frame, error) {
	bp.stats.Fetches++
	if f, ok := bp.frames[id]; ok {
		bp.stats.Hits++
		f.pins++
		bp.lru.MoveToFront(f.elem)
		return f, nil
	}
	f, err := bp.newFrame(id)
	if err != nil {
		return nil, err
	}
	bp.stats.Reads++
	if err := bp.backing.ReadPage(id, f.Data); err != nil {
		bp.dropFrame(f)
		return nil, err
	}
	return f, nil
}

// Alloc creates a new zeroed page in the backing store and pins it.
func (bp *BufferPool) Alloc() (*Frame, error) {
	f, err := bp.newFrame(bp.backing.Alloc())
	if err != nil {
		return nil, err
	}
	f.dirty = true
	return f, nil
}

// newFrame reserves a pinned frame for id, evicting if necessary.
func (bp *BufferPool) newFrame(id PageID) (*Frame, error) {
	if len(bp.frames) >= bp.capacity {
		if err := bp.evictOne(); err != nil {
			return nil, err
		}
	}
	f := &Frame{ID: id, Data: make([]byte, PageSize), pins: 1}
	f.elem = bp.lru.PushFront(f)
	bp.frames[id] = f
	return f, nil
}

func (bp *BufferPool) dropFrame(f *Frame) {
	bp.lru.Remove(f.elem)
	delete(bp.frames, f.ID)
}

// evictOne removes the least recently used unpinned frame, writing it back
// when dirty.
func (bp *BufferPool) evictOne() error {
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		f := e.Value.(*Frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			bp.stats.Writebacks++
			if err := bp.backing.WritePage(f.ID, f.Data); err != nil {
				return err
			}
		}
		bp.stats.Evictions++
		bp.dropFrame(f)
		return nil
	}
	return ErrPoolFull
}

// Unpin releases one pin of f; dirty marks the page modified.
func (bp *BufferPool) Unpin(f *Frame, dirty bool) {
	if f.pins <= 0 {
		panic(fmt.Sprintf("pagestore: unpin of unpinned page %d", f.ID))
	}
	f.pins--
	if dirty {
		f.dirty = true
	}
}

// DropAll flushes and evicts every unpinned frame, simulating a cold cache.
// It returns an error if a writeback fails; pinned frames are left in place.
func (bp *BufferPool) DropAll() error {
	var next *list.Element
	for e := bp.lru.Front(); e != nil; e = next {
		next = e.Next()
		f := e.Value.(*Frame)
		if f.pins > 0 {
			continue
		}
		if f.dirty {
			bp.stats.Writebacks++
			if err := bp.backing.WritePage(f.ID, f.Data); err != nil {
				return err
			}
		}
		bp.dropFrame(f)
	}
	return nil
}

// FlushAll writes every dirty frame back to the backing store.
func (bp *BufferPool) FlushAll() error {
	for _, f := range bp.frames {
		if f.dirty {
			bp.stats.Writebacks++
			if err := bp.backing.WritePage(f.ID, f.Data); err != nil {
				return err
			}
			f.dirty = false
		}
	}
	return nil
}
