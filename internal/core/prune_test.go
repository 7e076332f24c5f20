package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestShardPruningNarrowInterval checks the reach-based router: a query
// interval inside one shard visits only that shard no matter how far the
// durability window reaches, the skipped shards are tallied, and the answer
// still matches the brute-force oracle and the single engine.
func TestShardPruningNarrowInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := randDataset(rng, 400, 2, false)
	s := randScorer(rng, 2)
	eng := NewEngine(ds, testEngineOpts())
	se := NewShardedEngine(ds, testEngineOpts(), ShardOptions{Shards: 8})
	lo, hi := ds.Span()
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		for _, tau := range []int64{0, 3, hi - lo} { // reach up to the whole domain
			infos := se.Shards()
			in := infos[4]
			q := Query{
				K: 3, Tau: tau, Start: in.Start, End: in.End,
				Scorer: s, Anchor: anchor,
			}
			res, err := se.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			want := BruteForce(ds, s, q.K, tau, q.Start, q.End, anchor)
			if got := res.IDs(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("anchor=%v tau=%d: got %v want %v", anchor, tau, got, want)
			}
			single, err := eng.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.IDs(), single.IDs()) {
				t.Fatalf("anchor=%v tau=%d: sharded %v != single %v", anchor, tau, res.IDs(), single.IDs())
			}
			// I spans one shard (maybe touching a neighbor's records is
			// impossible: Start/End are this shard's own arrivals), so at
			// least the other 7 shards must have been pruned by the router —
			// even when tau reaches across the whole time domain.
			if res.Stats.ShardsPruned < se.NumShards()-1 {
				t.Fatalf("anchor=%v tau=%d: ShardsPruned=%d, want >= %d",
					anchor, tau, res.Stats.ShardsPruned, se.NumShards()-1)
			}
		}
	}
}

// TestShardPruningBoundaryReach sweeps queries whose window reach lands
// exactly on a shard boundary arrival (and one tick to either side) — the
// alignments where an off-by-one in reach arithmetic would flip a verdict —
// and requires bit-identical answers to the oracle and the single engine.
func TestShardPruningBoundaryReach(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 6; trial++ {
		n := 120 + rng.Intn(200)
		ds := randDataset(rng, n, 1, trial%2 == 0)
		s := randScorer(rng, 1)
		eng := NewEngine(ds, testEngineOpts())
		se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(2+rng.Intn(6), ShardStrategy(trial%2)))
		infos := se.Shards()
		pruned := 0
		for bi := 1; bi < len(infos); bi++ {
			in := infos[bi]
			prevEnd := infos[bi-1].End
			gap := in.Start - prevEnd
			for dt := int64(-1); dt <= 1; dt++ {
				tau := gap + dt // back-reach lands on / beside the boundary arrival
				if tau < 0 {
					continue
				}
				for _, anchor := range []Anchor{LookBack, LookAhead} {
					q := Query{
						K: 1 + rng.Intn(4), Tau: tau,
						Start: in.Start, End: min64(in.End, in.Start+tau),
						Scorer: s, Anchor: anchor,
					}
					want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, anchor)
					res, err := se.DurableTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if got := res.IDs(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
						t.Fatalf("trial=%d boundary=%d dt=%d anchor=%v k=%d tau=%d I=[%d,%d]:\n got %v\nwant %v",
							trial, bi, dt, anchor, q.K, q.Tau, q.Start, q.End, got, want)
					}
					single, err := eng.DurableTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.IDs(), single.IDs()) {
						t.Fatalf("trial=%d boundary=%d dt=%d: sharded %v != single %v",
							trial, bi, dt, res.IDs(), single.IDs())
					}
					pruned += res.Stats.ShardsPruned
				}
			}
		}
		if len(infos) > 2 && pruned == 0 {
			t.Fatalf("trial=%d: boundary sweep never pruned a shard", trial)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
