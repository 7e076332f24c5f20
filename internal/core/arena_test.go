package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/score"
	"repro/internal/topk"
)

// wholeSpan points pr at the look-back span over all of eng's rows and
// returns its block, the one a strategy evaluating the whole dataset probes.
func wholeSpan(eng *Engine, pr *probe) *spanBlock {
	n := eng.ds.Len()
	pr.span = *eng.ds.Slice(0, n)
	pr.blk = spanBlock{shards: eng.group.shards, ds: &pr.span, rhi: n}
	return &pr.blk
}

// TestRunSHopZeroAllocs asserts the arena acceptance criterion directly:
// once the probe's arena, scratch and buffers are warm, a full S-Hop
// evaluation — prefetch queries, heap processing, durability checks,
// blocking treap, result collection — performs zero allocations.
func TestRunSHopZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ds := randDataset(rng, 4096, 2, false)
	eng := NewEngine(ds, Options{})
	lo, hi := ds.Span()
	span := hi - lo
	q := Query{
		K: 10, Tau: span / 20,
		Start: lo + span/10, End: hi - span/10,
		Scorer: score.MustLinear(0.3, 0.7), Algorithm: SHop,
	}
	pr := newProbe()
	defer pr.release()
	v := wholeSpan(eng, pr)
	var st Stats
	// Warm the arena, scratch and map storage.
	want := runSHop(v, pr, q, &st)
	if len(want) == 0 {
		t.Fatal("workload answers nothing; pick a different query shape")
	}
	got := make([]int32, len(want))
	copy(got, want)
	for i := 0; i < 5; i++ {
		runSHop(v, pr, q, &st)
	}
	allocs := testing.AllocsPerRun(100, func() {
		st = Stats{}
		res := runSHop(v, pr, q, &st)
		if len(res) != len(got) {
			t.Fatalf("steady-state answer drifted: %d records, want %d", len(res), len(got))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state S-Hop evaluation allocates %.1f times, want 0", allocs)
	}
	// The arena-backed answer must still be the same answer.
	res := runSHop(v, pr, q, &st)
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("arena reuse corrupted the answer: got %v want %v", res, got)
	}
}

// TestArenaKeepPreservesLists checks the carve-by-append contract: lists
// carved before an arena growth stay intact after it (growth swaps in a
// fresh backing array instead of copying the old one), and heap entries keep
// stable addresses across chunk growth.
func TestArenaKeepPreservesLists(t *testing.T) {
	var a arena
	a.reset()
	rng := rand.New(rand.NewSource(67))
	var want [][]topk.Item
	var got [][]topk.Item
	var entries []*shopEntry
	for round := 0; round < 300; round++ {
		n := 1 + rng.Intn(40)
		src := make([]topk.Item, n)
		for i := range src {
			src[i] = topk.Item{ID: int32(round), Time: int64(i), Score: rng.Float64()}
		}
		kept := a.keep(src)
		e := a.newEntry()
		e.items, e.lo, e.hi = kept, int64(round), int64(round)+1
		want = append(want, src)
		got = append(got, kept)
		entries = append(entries, e)
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("list %d corrupted by later growth", i)
		}
		if !reflect.DeepEqual(entries[i].items, want[i]) || entries[i].lo != int64(i) {
			t.Fatalf("entry %d corrupted by chunk growth", i)
		}
	}
	// Reset frees wholesale; the next query reuses the storage from scratch.
	a.reset()
	if len(a.items) != 0 || a.entryN != 0 {
		t.Fatal("reset must empty the arena")
	}
	if a.keep(want[0]); !reflect.DeepEqual(a.items[:len(want[0])], want[0]) {
		t.Fatal("arena unusable after reset")
	}
}
