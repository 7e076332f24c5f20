package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
// late store at an older epoch is refused. Other datasets and a static
// dataset's constant epoch are untouched.
func TestCacheResultEpochSupersedes(t *testing.T) {
	c := NewCache(64)
	k := func(ds string, i int, epoch uint64) ResultKey {
		return ResultKey{Dataset: ds, Op: "query", K: i, Epoch: epoch}
	}
	for i := 0; i < 5; i++ {
		c.PutResult(k("live", i, 7), i)
		c.PutResult(k("static", i, 0), i)
	}
	if st := c.Stats(); st.Entries != 10 || st.Invalidated != 0 {
		t.Fatalf("before: %+v", st)
	}

	c.PutResult(k("live", 0, 9), "fresh")
	st := c.Stats()
	if st.Entries != 6 || st.Invalidated != 5 || st.Evicted != 0 {
		t.Fatalf("after a newer epoch: %+v, want 6 entries, 5 invalidated", st)
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

// encoded returns an encoded answer of n bytes, as the wire server caches
// them.
func encoded(n int) []byte { return make([]byte, n) }

// costing returns an encoded answer that costs exactly u budget units.
func costing(u int) []byte { return encoded((u - 1) * bytesPerUnit) }

// TestCacheByteBudget: the budget counts what the cache holds — an encoded
// answer costs 1 + bytes/2560 units — so 4 096 units hold thousands of small
// answers or a handful of huge ones, never thousands of huge ones. Bytes
// reports what is resident.
func TestCacheByteBudget(t *testing.T) {
	k := func(i int) ResultKey { return ResultKey{Dataset: "d", K: i} }
	c := NewCache(4096)
	small := encoded(400)
	for i := 0; i < 5000; i++ {
		c.PutResult(k(i), small) // one unit each
	}
	if st := c.Stats(); st.Entries != 4096 || st.Evicted != 5000-4096 || c.used != 4096 || st.Bytes != 4096*400 {
		t.Fatalf("small answers: %+v, %d units used", st, c.used)
	}
	// One 400 000-byte answer costs 1 + 156 units and evicts that many small
	// ones.
	large := encoded(400_000)
	c.PutResult(k(-1), large)
	if st := c.Stats(); st.Entries != 4096-157+1 || c.used != 4096 || st.Bytes != (4096-157)*400+400_000 {
		t.Fatalf("after a 400 000-byte answer: %+v, %d units used", st, c.used)
	}
	if _, ok := c.GetResult(k(-1)); !ok {
		t.Fatal("the large answer is not resident")
	}
	// Only 26 of them fit, where an entry-counted bound would hold 4 096.
	big := NewCache(4096)
	for i := 0; i < 100; i++ {
		big.PutResult(k(i), large)
	}
	if st := big.Stats(); st.Entries != 4096/157 || big.used != st.Entries*157 || st.Bytes != st.Entries*400_000 {
		t.Fatalf("large answers: %+v, %d units used", st, big.used)
	}
	// An answer larger than the whole budget is not stored and evicts nothing.
	big.PutResult(k(-1), encoded(4096*bytesPerUnit))
	if st := big.Stats(); st.Entries != 4096/157 || st.Evicted != 100-4096/157 || st.Bytes != st.Entries*400_000 {
		t.Fatalf("an over-budget answer disturbed the cache: %+v", st)
	}

	// A refresh of a resident key is charged its new cost, not the sum.
	c = NewCache(8)
	c.PutResult(k(1), costing(1))
	c.PutResult(k(2), costing(1))
	c.PutResult(k(1), costing(6))
	if st := c.Stats(); st.Entries != 2 || st.Evicted != 0 || c.used != 7 || st.Bytes != 5*bytesPerUnit {
		t.Fatalf("after a costlier refresh: %+v, %d units used", st, c.used)
	}
	c.PutResult(k(1), costing(8)) // only fits alone
	if st := c.Stats(); st.Entries != 1 || st.Evicted != 1 || c.used != 8 || st.Bytes != 7*bytesPerUnit {
		t.Fatalf("after a refresh that fills the budget: %+v, %d units used", st, c.used)
	}
	c.PutResult(k(1), costing(1))
	if st := c.Stats(); st.Entries != 1 || c.used != 1 || st.Bytes != 0 {
		t.Fatalf("after a cheaper refresh: %+v, %d units used", st, c.used)
	}
	// Values that are not encoded answers cost one unit and no bytes.
	c.PutResult(k(3), "opaque")
	if st := c.Stats(); c.used != 2 || st.Bytes != 0 {
		t.Fatalf("opaque value: %+v, %d units used, want 2", st, c.used)
	}
}

// TestCacheInvalidateAfterEviction: eviction and epoch invalidation both give
// an entry's units and bytes back exactly once, and an epoch change after
// evictions drops — and counts — only what is still resident.
func TestCacheInvalidateAfterEviction(t *testing.T) {
	c := NewCache(10)
	k := func(i int, epoch uint64) ResultKey { return ResultKey{Dataset: "live", K: i, Epoch: epoch} }
	c.PutResult(k(1, 1), costing(4))
	c.PutResult(k(2, 1), costing(4))
	c.PutResult(k(3, 1), costing(7)) // evicts both
	if st := c.Stats(); st.Evicted != 2 || st.Entries != 1 || c.used != 7 || st.Bytes != 6*bytesPerUnit {
		t.Fatalf("after eviction: %+v, %d units used", st, c.used)
	}
	c.PutResult(k(4, 1), costing(2))
	c.PutResult(k(1, 2), costing(1)) // newer epoch: the two residents go
	st := c.Stats()
	if st.Invalidated != 2 || st.Evicted != 2 || st.Entries != 1 || c.used != 1 || st.Bytes != 0 {
		t.Fatalf("after the epoch change: %+v, %d units used", st, c.used)
	}
	// The freed units are really free: nine more fit without an eviction.
	for i := 10; i < 19; i++ {
		c.PutResult(k(i, 2), costing(1))
	}
	if st := c.Stats(); st.Evicted != 2 || st.Entries != 10 || c.used != 10 {
		t.Fatalf("after refilling: %+v, %d units used", st, c.used)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := ResultKey{Dataset: "ds", K: i % 10, Epoch: uint64(g % 3)}
				if v, ok := c.GetResult(key); ok {
					if v.(int) != key.K {
						t.Errorf("corrupted value %v for k=%d", v, key.K)
					}
				} else {
					c.PutResult(key, key.K)
				}
			}
		}(g)
	}
	wg.Wait()
}
