package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// aliases reports whether sub's columns are global's rows [lo, lo+sub.Len())
// in the same storage, not a copy of them.
func aliases(sub, global *data.Dataset, lo int) bool {
	n := sub.Len()
	if n == 0 || lo+n > global.Len() {
		return false
	}
	d := sub.Dims()
	return &sub.Times()[0] == &global.Times()[lo] &&
		&sub.FlatAttrs()[0] == &global.FlatAttrs()[lo*d]
}

// checkSealedOnGlobal fails the test unless every sealed shard is a frozen
// static engine reading the current generation of lse's global columns.
// Callers quiesce the engine (WaitSealed, WaitCompacted) first.
func checkSealedOnGlobal(t *testing.T, lse *LiveShardedEngine) {
	t.Helper()
	lse.mu.RLock()
	defer lse.mu.RUnlock()
	if len(lse.sealed) == 0 {
		t.Fatal("no sealed shards: not the lifecycle this test is about")
	}
	for i, sh := range lse.sealed {
		if _, ok := sh.eng.Index().(*topk.Index); !ok {
			t.Fatalf("sealed shard %d [%d,%d) still serves %T", i, sh.lo, sh.hi, sh.eng.Index())
		}
	}
	checkShardsOnGlobalLocked(t, lse)
}

// checkShardsOnGlobalLocked fails the test unless every sealed shard — a
// frozen index, or a sealed tail's forest view whose freeze is pending — and
// every chunk tree of the tail's forest reads the current generation of the
// engine's global columns. Caller holds e.mu.
func checkShardsOnGlobalLocked(t *testing.T, e *LiveShardedEngine) {
	t.Helper()
	for i, sh := range e.sealed {
		ds := sh.eng.Dataset()
		if ds.Len() != sh.hi-sh.lo || !aliases(ds, e.global, sh.lo) {
			t.Fatalf("sealed shard %d [%d,%d) reads a column generation the global storage has left", i, sh.lo, sh.hi)
		}
		var blk *data.Dataset
		switch x := sh.eng.Index().(type) {
		case *topk.Index:
			blk = x.Dataset()
		case *topk.View:
			blk = x.Dataset()
		}
		if blk != ds {
			t.Fatalf("sealed shard %d [%d,%d): its %T reads other storage than its engine", i, sh.lo, sh.hi, sh.eng.Index())
		}
	}
	at := e.tailLo
	for i, ds := range e.tail.TreeDatasets() {
		if !aliases(ds, e.global, at) {
			t.Fatalf("tail chunk tree %d [%d,%d) reads a column generation the global storage has left", i, at, at+ds.Len())
		}
		at += ds.Len()
	}
}

// TestOneColumnGeneration pins the one-generation invariant of the live
// lifecycle, sealing and never sealing: when an append grows the columns into
// a new array, every long-lived holder of the old one — sealed shards, sealed
// tails whose freeze is pending, freeze and compaction builds installed after
// the growth, the tail forest's chunk trees — is re-pointed at the new one, so
// once pinned epochs finish exactly one generation stays reachable. The
// stream crosses several growth steps with background freezes and
// compactions in flight and queriers racing the re-pointing; answers must
// stay the oracle's on both anchors throughout. Seals every 24 rows keep
// shard boundaries off the power-of-two growth steps, so shards frozen well
// before a step are still live after it. A last growth lands while a sealed
// tail's freeze is held pending.
func TestOneColumnGeneration(t *testing.T) {
	const n = 3000 // the columns grow at 256, 512, 1024 and 2048 rows
	rng := rand.New(rand.NewSource(31))
	lse := compactLSE(t, 2, LiveShardOptions{SealRows: 24, CompactFanout: 4})
	le, err := NewLiveEngine(2, testEngineOpts(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := score.MustLinear(0.7, 0.3)
	times, flat := make([]int64, 0, n), make([]float64, 0, 2*n)
	var committed atomic.Pointer[data.Dataset]

	// Look-back answers over a committed prefix are final, so the queriers
	// can check them against the oracle while appends keep growing the
	// columns underneath.
	var done atomic.Bool
	var wg sync.WaitGroup
	stop := func() { done.Store(true); wg.Wait() }
	defer stop() // a failed check must not leave the queriers running
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qr := rand.New(rand.NewSource(int64(100 + w)))
			for !done.Load() {
				ds := committed.Load()
				if ds == nil {
					runtime.Gosched()
					continue
				}
				lo, hi := ds.Span()
				start := max(lo, hi-int64(qr.Intn(300)))
				q := Query{K: 1 + qr.Intn(3), Tau: int64(1 + qr.Intn(80)), Start: start, End: hi, Scorer: s}
				want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, LookBack)
				res, err := lse.DurableTopK(q)
				if err != nil {
					errs <- fmt.Errorf("querier %d: %v", w, err)
					return
				}
				if got := res.IDs(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("querier %d over %d rows: got %v want %v", w, ds.Len(), got, want)
					return
				}
			}
		}(w)
	}

	tick := int64(0)
	for i := 0; i < n; i++ {
		tick += 1 + int64(rng.Intn(3))
		row := []float64{float64(rng.Intn(50)), rng.Float64() * 10}
		if _, _, err := le.Append(tick, row); err != nil {
			t.Fatal(err)
		}
		if _, _, err := lse.Append(tick, row); err != nil {
			t.Fatal(err)
		}
		times, flat = append(times, tick), append(flat, row...)
		ds, err := data.NewFlat(times, flat, 2)
		if err != nil {
			t.Fatal(err)
		}
		committed.Store(ds)
		switch i + 1 {
		case 300, 600, 1100, 2100:
			// Quiesce just past a growth step: shards frozen and merged
			// before it must have moved to the new generation.
			checkOneGeneration(t, lse, le)
		}
		if i%23 != 0 {
			continue
		}
		start := times[max(0, len(times)-1-rng.Intn(200))]
		for _, anchor := range []Anchor{LookBack, LookAhead} {
			q := Query{K: 1 + rng.Intn(3), Tau: int64(1 + rng.Intn(60)), Start: start, End: tick, Scorer: s, Anchor: anchor}
			want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, anchor)
			for name, eng := range map[string]Querier{"live": le, "live sharded": lse} {
				res, err := eng.DurableTopK(q)
				if err != nil {
					t.Fatalf("%s after %d appends: %v", name, i+1, err)
				}
				if got := res.IDs(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s after %d appends, %v k=%d tau=%d from %d:\n got  %v\n want %v", name, i+1, anchor, q.K, q.Tau, q.Start, got, want)
				}
			}
		}
	}
	stop()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkOneGeneration(t, lse, le)
	if lse.Compactions() == 0 {
		t.Fatal("no compaction: not the lifecycle this test is about")
	}

	// Holding mu keeps the freeze of a fresh seal from installing, so the
	// sealed tail still serves its forest view when the next growth lands.
	appendLocked := func() {
		tick += 1 + int64(rng.Intn(3))
		if err := lse.appendLocked(tick, []float64{float64(rng.Intn(50)), rng.Float64() * 10}); err != nil {
			lse.mu.Unlock()
			t.Fatal(err)
		}
	}
	lse.mu.Lock()
	for lse.global.Len()-lse.tailLo < 20 { // a chunk tree to re-point, and a buffer
		appendLocked()
	}
	lse.sealLocked()
	pending := len(lse.sealed) - 1
	for c := cap(lse.global.Times()); cap(lse.global.Times()) == c; {
		appendLocked()
	}
	if _, ok := lse.sealed[pending].eng.Index().(*topk.View); !ok {
		lse.mu.Unlock()
		t.Fatal("the freeze landed before the growth: not the state this check is about")
	}
	checkShardsOnGlobalLocked(t, lse)
	lse.mu.Unlock()
	checkOneGeneration(t, lse, le)
}

// checkOneGeneration quiesces lse's freezes and compactions, then fails the
// test unless every sealed shard of lse, and every chunk tree of either
// engine's tail forest, reads the current generation of its engine's columns.
func checkOneGeneration(t *testing.T, lse *LiveShardedEngine, le *LiveEngine) {
	t.Helper()
	lse.WaitSealed()
	lse.WaitCompacted()
	checkSealedOnGlobal(t, lse)
	le.mu.RLock()
	defer le.mu.RUnlock()
	if len(le.sealed) != 0 || le.tail.Trees() == 0 {
		t.Fatalf("%d sealed shards, %d chunk trees: not the never-sealing forest this test is about", len(le.sealed), le.tail.Trees())
	}
	checkShardsOnGlobalLocked(t, le)
}

// TestRestoreGrowsOnce pins recovery's single growth: restoring checkpointed
// shards whose rows cross several growth steps reserves the columns once, so
// every restored shard reads the one generation the global storage holds
// rather than the smaller one it happened to be frozen over.
func TestRestoreGrowsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const shards, rows = 7, 150 // 1 050 rows: past the 256, 512 and 1 024 steps
	var restored []RestoredShard
	var times []int64
	var rowsAll [][]float64
	tick := int64(0)
	for i := 0; i < shards; i++ {
		var sh RestoredShard
		for j := 0; j < rows; j++ {
			tick += 1 + int64(rng.Intn(3))
			row := []float64{rng.Float64(), float64(rng.Intn(8))}
			sh.Times, sh.Flat = append(sh.Times, tick), append(sh.Flat, row...)
			times, rowsAll = append(times, tick), append(rowsAll, row)
		}
		restored = append(restored, sh)
	}
	lse, err := RestoreLiveShardedEngine(2, testEngineOpts(), LiveOptions{}, LiveShardOptions{SealRows: rows}, 0, restored)
	if err != nil {
		t.Fatal(err)
	}
	if got := lse.NumShards(); got != shards {
		t.Fatalf("%d shards after restore, want %d", got, shards)
	}
	checkSealedOnGlobal(t, lse)

	ds := data.MustNew(times, rowsAll)
	s := score.MustLinear(0.5, 0.5)
	lo, hi := ds.Span()
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		q := Query{K: 3, Tau: 40, Start: lo, End: hi, Scorer: s, Anchor: anchor}
		want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, anchor)
		res, err := lse.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after restore:\n got  %v\n want %v", anchor, got, want)
		}
	}
}

// TestLiveShardedHeapTracksColumns bounds what a live+sharded engine keeps
// beyond its rows: after 1.1 M appends with seals and compactions drained,
// the live heap is at most 2.5× the raw columns. One generation of doubling
// columns is up to 2× the rows; the indexes and the tail are the rest. An
// engine whose sealed shards pinned older generations held 2.9× here.
func TestLiveShardedHeapTracksColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 1.1 M rows")
	}
	checkHeapOverColumns(t, 1_100_000, 2.5, func() (*LiveShardedEngine, error) {
		return NewLiveShardedEngine(2, Options{}, LiveOptions{}, LiveShardOptions{SealRows: 4096, CompactFanout: 4})
	})
}

// TestLiveHeapTracksColumns is the same bound for a plain live engine, whose
// one forest indexes the columns in place: at 300 k rows its heap is at most
// 2.2× the raw columns. A forest that kept a popped chunk tree in its tree
// slice's spare capacity pinned a whole old generation and held 2.7× here.
func TestLiveHeapTracksColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("appends 300 k rows")
	}
	checkHeapOverColumns(t, 300_000, 2.2, func() (*LiveEngine, error) { return NewLiveEngine(2, Options{}, LiveOptions{}) })
}

// checkHeapOverColumns appends n random 2-d rows to the live engine open
// returns, drains its background work and fails the test if the live heap
// exceeds bound times the raw columns.
func checkHeapOverColumns(t *testing.T, n int, bound float64, open func() (*LiveShardedEngine, error)) {
	t.Helper()
	const d = 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lse, err := open()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		row[0], row[1] = rng.Float64(), rng.Float64()
		if _, _, err := lse.Append(int64(i+1), row); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	lse.WaitCompacted()
	runtime.GC()
	runtime.GC() // the second cycle frees what the first moved to sync.Pool victim caches
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(lse)
	raw := float64(n * (8 + 8*d))
	live := float64(int64(after.HeapAlloc) - int64(before.HeapAlloc))
	ratio := live / raw
	t.Logf("live heap %.1f MiB for %.1f MiB of raw columns: %.2f×", live/(1<<20), raw/(1<<20), ratio)
	if ratio > bound {
		t.Fatalf("live heap is %.2f× the raw columns, want <= %.1f×", ratio, bound)
	}
}
