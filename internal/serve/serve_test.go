package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

func TestSchedulerBoundsConcurrency(t *testing.T) {
	const workers, jobs = 3, 20
	s := NewScheduler(workers)
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	release := make(chan struct{})
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := s.Do(context.Background(), func() {
				n := cur.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				<-release
				cur.Add(-1)
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	// Let the pool fill, then drain.
	for s.Metrics().InFlight < workers {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", got, workers)
	}
	m := s.Metrics()
	if m.Admitted != jobs || m.Rejected != 0 || m.InFlight != 0 || m.Queued != 0 {
		t.Fatalf("metrics after drain: %+v", m)
	}
}

func TestSchedulerAdmissionTimeout(t *testing.T) {
	s := NewScheduler(1)
	hold := make(chan struct{})
	started := make(chan struct{})
	go s.Do(context.Background(), func() { close(started); <-hold })
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Do(ctx, func() { t.Error("must not run") }); err != context.DeadlineExceeded {
		t.Fatalf("Do with expired context: err=%v, want DeadlineExceeded", err)
	}
	if m := s.Metrics(); m.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", m.Rejected)
	}
	close(hold)
}

func TestSchedulerClose(t *testing.T) {
	s := NewScheduler(1)
	hold := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Do(context.Background(), func() { close(started); <-hold })
	}()
	<-started
	queued := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		queued <- s.Do(context.Background(), func() { t.Error("must not run") })
	}()
	for s.Metrics().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	if err := <-queued; err != ErrSchedulerClosed {
		t.Fatalf("queued Do after Close: err=%v, want ErrSchedulerClosed", err)
	}
	close(hold) // admitted work still completes
	wg.Wait()
	if err := s.Do(context.Background(), nil); err != ErrSchedulerClosed {
		t.Fatalf("Do after Close: err=%v, want ErrSchedulerClosed", err)
	}
}

func TestCacheResultRoundTrip(t *testing.T) {
	c := NewCache(8)
	key := ResultKey{Dataset: "nba", Op: "query", Scorer: "lin,3ff0000000000000", K: 5, Tau: 10, Epoch: 7}
	if _, ok := c.GetResult(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.PutResult(key, "answer")
	got, ok := c.GetResult(key)
	if !ok || got != "answer" {
		t.Fatalf("GetResult = %v, %v", got, ok)
	}
	// A different epoch is a different key: no stale replay.
	stale := key
	stale.Epoch = 8
	if _, ok := c.GetResult(stale); ok {
		t.Fatal("hit across epochs")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if r := st.HitRate(); r < 0.33 || r > 0.34 {
		t.Fatalf("hit rate %v, want 1/3", r)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	k := func(i int) ResultKey { return ResultKey{Dataset: "d", K: i} }
	c.PutResult(k(1), 1)
	c.PutResult(k(2), 2)
	c.GetResult(k(1)) // refresh 1; 2 becomes LRU
	c.PutResult(k(3), 3)
	if _, ok := c.GetResult(k(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.GetResult(k(1)); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.GetResult(k(3)); !ok {
		t.Fatal("new entry missing")
	}
	if st := c.Stats(); st.Evicted != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCacheResultEpochSupersedes: lookups only ever ask for a dataset's
// current epoch, so a store at a newer epoch drops that dataset's older
// results at once instead of leaving them resident until LRU pressure, and a
// late store at an older epoch is refused. Other datasets, partial entries
// and a static dataset's constant epoch are untouched.
func TestCacheResultEpochSupersedes(t *testing.T) {
	c := NewCache(64)
	k := func(ds string, i int, epoch uint64) ResultKey {
		return ResultKey{Dataset: ds, Op: "query", K: i, Epoch: epoch}
	}
	for i := 0; i < 5; i++ {
		c.PutResult(k("live", i, 7), i)
		c.PutResult(k("static", i, 0), i)
	}
	part := c.Partial("live")
	pk := core.PartialKey{ShardLo: 0, ShardHi: 100, Lo: 10, Hi: 90, Scorer: "lin,x", K: 3}
	part.PutPartial(pk, []int32{1})
	if st := c.Stats(); st.Entries != 11 || st.Invalidated != 0 {
		t.Fatalf("before: %+v", st)
	}

	c.PutResult(k("live", 0, 9), "fresh")
	st := c.Stats()
	if st.Entries != 7 || st.Invalidated != 5 || st.Evicted != 0 {
		t.Fatalf("after a newer epoch: %+v, want 7 entries, 5 invalidated", st)
	}
	if v, ok := c.GetResult(k("live", 0, 9)); !ok || v != "fresh" {
		t.Fatalf("newest entry: %v, %v", v, ok)
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.GetResult(k("live", i, 7)); ok {
			t.Fatalf("superseded entry %d still resident", i)
		}
		if _, ok := c.GetResult(k("static", i, 0)); !ok {
			t.Fatalf("static entry %d dropped", i)
		}
	}
	if _, ok := part.GetPartial(pk); !ok {
		t.Fatal("partial entry dropped by a result epoch change")
	}

	// A slow evaluation finishing after the data moved on must not park a
	// dead entry.
	c.PutResult(k("live", 1, 8), "late")
	if _, ok := c.GetResult(k("live", 1, 8)); ok {
		t.Fatal("store at a superseded epoch was accepted")
	}
	// Same-epoch stores keep accumulating, and eviction keeps the index
	// consistent: the next epoch change drops exactly what is resident.
	small := NewCache(3)
	for i := 0; i < 5; i++ {
		small.PutResult(k("live", i, 1), i)
	}
	small.PutResult(k("live", 0, 2), 0)
	if st := small.Stats(); st.Entries != 1 || st.Evicted != 2 || st.Invalidated != 3 {
		t.Fatalf("after eviction then epoch change: %+v", st)
	}
}

func TestCachePartialScopedByDataset(t *testing.T) {
	c := NewCache(8)
	pk := core.PartialKey{ShardLo: 0, ShardHi: 100, Lo: 10, Hi: 90, Scorer: "lin,x", K: 3, Tau: 5}
	a, b := c.Partial("a"), c.Partial("b")
	a.PutPartial(pk, []int32{1, 2, 3})
	if _, ok := b.GetPartial(pk); ok {
		t.Fatal("partial entry leaked across datasets")
	}
	ids, ok := a.GetPartial(pk)
	if !ok || len(ids) != 3 || ids[0] != 1 {
		t.Fatalf("GetPartial = %v, %v", ids, ok)
	}
	st := c.Stats()
	if st.PartialHits != 1 || st.PartialMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCacheInvalidateShard(t *testing.T) {
	c := NewCache(32)
	mk := func(lo, hi, k int) core.PartialKey {
		return core.PartialKey{ShardLo: lo, ShardHi: hi, Lo: lo, Hi: hi, Scorer: "lin,x", K: k, Tau: 5}
	}
	a, b := c.Partial("a"), c.Partial("b")
	// Two shards on dataset a (several entries each), one on dataset b that
	// shares shard a's row range — invalidation must be dataset-scoped.
	for k := 1; k <= 3; k++ {
		a.PutPartial(mk(0, 100, k), []int32{int32(k)})
		a.PutPartial(mk(100, 200, k), []int32{int32(k)})
		b.PutPartial(mk(0, 100, k), []int32{int32(k)})
	}
	c.PutResult(ResultKey{Dataset: "a", K: 1}, "whole")

	inv := a.(interface{ InvalidateShard(lo, hi int) })
	inv.InvalidateShard(0, 100) // shard [0,100) of dataset a left the live set

	for k := 1; k <= 3; k++ {
		if _, ok := a.GetPartial(mk(0, 100, k)); ok {
			t.Fatalf("entry k=%d of the invalidated shard survived", k)
		}
		if _, ok := a.GetPartial(mk(100, 200, k)); !ok {
			t.Fatalf("entry k=%d of an unrelated shard was dropped", k)
		}
		if _, ok := b.GetPartial(mk(0, 100, k)); !ok {
			t.Fatalf("dataset b entry k=%d dropped by dataset a's invalidation", k)
		}
	}
	if _, ok := c.GetResult(ResultKey{Dataset: "a", K: 1}); !ok {
		t.Fatal("whole-result entry dropped by a shard invalidation")
	}
	st := c.Stats()
	if st.Invalidated != 3 {
		t.Fatalf("Invalidated = %d, want 3", st.Invalidated)
	}
	if st.Entries != 7 {
		t.Fatalf("Entries = %d, want 7 (9+1 inserted, 3 invalidated)", st.Entries)
	}
	// Idempotent: a second invalidation of the same (now absent) shard.
	inv.InvalidateShard(0, 100)
	if st := c.Stats(); st.Invalidated != 3 {
		t.Fatalf("re-invalidation counted entries: %+v", st)
	}
}

// TestCacheInvalidateAfterEviction: the by-shard index must track LRU
// evictions, or invalidation could double-count or touch reinserted keys.
func TestCacheInvalidateAfterEviction(t *testing.T) {
	c := NewCache(2)
	p := c.Partial("ds")
	mk := func(lo, hi, k int) core.PartialKey {
		return core.PartialKey{ShardLo: lo, ShardHi: hi, Lo: lo, Hi: hi, Scorer: "lin,x", K: k}
	}
	p.PutPartial(mk(0, 10, 1), []int32{1})
	p.PutPartial(mk(0, 10, 2), []int32{2}) // cache full
	p.PutPartial(mk(10, 20, 1), []int32{3})
	p.PutPartial(mk(10, 20, 2), []int32{4}) // evicts both shard-[0,10) entries
	if st := c.Stats(); st.Evicted != 2 {
		t.Fatalf("Evicted = %d, want 2", st.Evicted)
	}
	p.(interface{ InvalidateShard(lo, hi int) }).InvalidateShard(0, 10)
	if st := c.Stats(); st.Invalidated != 0 {
		t.Fatalf("invalidation counted evicted entries: %+v", st)
	}
	p.(interface{ InvalidateShard(lo, hi int) }).InvalidateShard(10, 20)
	st := c.Stats()
	if st.Invalidated != 2 || st.Entries != 0 {
		t.Fatalf("stats after invalidating the live shard: %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := c.Partial("ds")
			for i := 0; i < 200; i++ {
				key := ResultKey{Dataset: "ds", K: i % 10, Epoch: uint64(g % 3)}
				if v, ok := c.GetResult(key); ok {
					if v.(int) != key.K {
						t.Errorf("corrupted value %v for k=%d", v, key.K)
					}
				} else {
					c.PutResult(key, key.K)
				}
				pk := core.PartialKey{ShardLo: i % 5, K: 2}
				if ids, ok := p.GetPartial(pk); ok {
					if int(ids[0]) != pk.ShardLo {
						t.Errorf("corrupted partial %v", ids)
					}
				} else {
					p.PutPartial(pk, []int32{int32(pk.ShardLo)})
				}
			}
		}(g)
	}
	wg.Wait()
}
