package core

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// TestStraddleRegionBuildsNothing is the straddle path's cost contract: once
// an 8-shard engine is warm (every shard's reversed view exists), a query
// whose every boundary run resolves over a multi-shard region builds no
// index and allocates a small bounded amount — no per-region dataset copy,
// no per-probe garbage — while still answering like the unsharded engine.
func TestStraddleRegionBuildsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := randDataset(rng, 8000, 2, true)
	var builds atomic.Int64
	opts := testEngineOpts()
	opts.NewBlock = func(d *data.Dataset) Block {
		builds.Add(1)
		return topk.Build(d, opts.Index)
	}
	se := NewShardedEngine(ds, opts, ShardOptions{Shards: 8, Workers: 1, StraddleThreshold: 1})
	plain := NewEngine(ds, testEngineOpts())
	lo, hi := ds.Span()
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		q := Query{
			K: 5, Tau: (hi - lo) / 4, // two shard widths: regions cover 3+ shards
			Start: lo, End: hi, Anchor: anchor,
			Scorer: score.MustLinear(0.3, 0.7), Algorithm: SHop,
		}
		want, err := plain.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.DurableTopK(q) // warms pools and, looking ahead, the reversed views
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Records) == 0 || !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%v: sharded answer differs: got %d records, want %d", anchor, len(got.Records), len(want.Records))
		}
		built := builds.Load()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := se.DurableTopK(q); err != nil {
				t.Fatal(err)
			}
		})
		if n := builds.Load() - built; n != 0 {
			t.Fatalf("%v: warmed straddling query built %d indexes, want 0", anchor, n)
		}
		// Per shard task: two region set-ups, the interior engine's result and
		// id buffers; per query: the answer. A region index build alone would
		// be thousands.
		if allocs > 250 {
			t.Fatalf("%v: warmed straddling query allocates %.0f times, want <= 250", anchor, allocs)
		}
		t.Logf("%v: %.0f allocs/query, %d records", anchor, allocs, len(want.Records))
	}
	if n := builds.Load(); n != 16 {
		t.Fatalf("%d index builds in total, want 16 (8 shards, forward and reversed)", n)
	}
}
