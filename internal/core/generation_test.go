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
		ds := sh.eng.Dataset()
		if ds.Len() != sh.hi-sh.lo || !aliases(ds, lse.global, sh.lo) {
			t.Fatalf("sealed shard %d [%d,%d) reads a column generation the global storage has left", i, sh.lo, sh.hi)
		}
		if idx := sh.eng.Index().(*topk.Index); idx.Dataset() != ds {
			t.Fatalf("sealed shard %d [%d,%d): its index reads other storage than its engine", i, sh.lo, sh.hi)
		}
	}
}

// TestOneColumnGeneration pins the one-generation invariant of both live
// engines: when an append grows the columns into a new array, every
// long-lived holder of the old one — sealed shards, freeze and compaction
// builds installed after the growth, a forest's chunk trees — is re-pointed
// at the new one, so once pinned epochs finish exactly one generation stays
// reachable. The stream crosses several growth steps with background freezes
// and compactions in flight and queriers racing the re-pointing; answers
// must stay the oracle's on both anchors throughout. Seals every 24 rows keep
// shard boundaries off the power-of-two growth steps, so shards frozen well
// before a step are still live after it.
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
}

// checkOneGeneration quiesces lse's freezes and compactions, then fails the
// test unless every sealed shard of lse and every chunk tree of le's forest
// reads the current generation of its engine's columns.
func checkOneGeneration(t *testing.T, lse *LiveShardedEngine, le *LiveEngine) {
	t.Helper()
	lse.WaitSealed()
	lse.WaitCompacted()
	checkSealedOnGlobal(t, lse)
	le.mu.RLock()
	defer le.mu.RUnlock()
	storage, at := le.forest.Dataset(), 0
	trees := le.forest.TreeDatasets()
	if len(trees) == 0 {
		t.Fatal("no chunk trees: not the forest this test is about")
	}
	for i, ds := range trees {
		if !aliases(ds, storage, at) {
			t.Fatalf("chunk tree %d [%d,%d) reads a column generation the forest has left", i, at, at+ds.Len())
		}
		at += ds.Len()
	}
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
	lse, err := RestoreLiveShardedEngine(2, testEngineOpts(), LiveOptions{}, LiveShardOptions{SealRows: rows}, restored)
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
	const n, d = 1_100_000, 2
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	lse, err := NewLiveShardedEngine(d, Options{}, LiveOptions{}, LiveShardOptions{SealRows: 4096, CompactFanout: 4})
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
	if ratio > 2.5 {
		t.Fatalf("live heap is %.2f× the raw columns, want <= 2.5×", ratio)
	}
}
