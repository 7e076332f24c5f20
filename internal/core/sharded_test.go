package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/score"
	"repro/internal/topk"
)

func testShardOpts(shards int, strategy ShardStrategy) ShardOptions {
	return ShardOptions{Shards: shards, Strategy: strategy}
}

func testEngineOpts() Options {
	return Options{Index: topk.Options{LengthThreshold: 8, MaxNodeSkyline: 8}}
}

// TestShardCuts checks the partition invariants of both strategies: cuts
// cover [0, n) with non-empty ascending ranges.
func TestShardCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		ds := randDataset(rng, n, 1, false)
		for _, strategy := range []ShardStrategy{ByCount, ByTimeSpan} {
			for _, count := range []int{1, 2, 3, 7, 16, n, n + 5} {
				cuts := shardCuts(ds, count, strategy)
				if cuts[0] != 0 || cuts[len(cuts)-1] != n {
					t.Fatalf("%v shards=%d n=%d: cuts %v do not span [0,%d]", strategy, count, n, cuts, n)
				}
				for i := 1; i < len(cuts); i++ {
					if cuts[i] <= cuts[i-1] {
						t.Fatalf("%v shards=%d n=%d: non-increasing cuts %v", strategy, count, n, cuts)
					}
				}
				if len(cuts)-1 > count {
					t.Fatalf("%v: %d shards from request of %d", strategy, len(cuts)-1, count)
				}
			}
		}
	}
}

// TestShardedMatchesBruteForce drives the sharded engine across shard
// counts, strategies and anchors against the oracle.
func TestShardedMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		n := 30 + rng.Intn(300)
		d := 1 + rng.Intn(3)
		ds := randDataset(rng, n, d, trial%3 == 0)
		s := randScorer(rng, d)
		lo, hi := ds.Span()
		span := hi - lo

		for qi := 0; qi < 3; qi++ {
			k := 1 + rng.Intn(5)
			tau := int64(rng.Intn(int(span) + 2))
			start := lo + int64(rng.Intn(int(span)+1))
			end := start + int64(rng.Intn(int(hi-start)+1))
			anchor := []Anchor{LookBack, LookAhead, General}[qi%3]
			lead := int64(0)
			if anchor == General && tau > 0 {
				lead = int64(rng.Intn(int(tau + 1)))
			}
			var want []int
			if anchor == General {
				want = BruteForceAnchored(ds, s, k, tau, lead, start, end)
			} else {
				want = BruteForce(ds, s, k, tau, start, end, anchor)
			}
			for _, shards := range []int{1, 2, 7, 16} {
				se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(shards, ShardStrategy(trial%2)))
				res, err := se.DurableTopK(Query{
					K: k, Tau: tau, Lead: lead, Start: start, End: end,
					Scorer: s, Anchor: anchor,
				})
				if err != nil {
					t.Fatalf("trial %d shards=%d: %v", trial, shards, err)
				}
				got := res.IDs()
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d shards=%d anchor=%v k=%d tau=%d lead=%d I=[%d,%d] n=%d:\n got %v\nwant %v",
						trial, shards, anchor, k, tau, lead, start, end, n, got, want)
				}
			}
		}
	}
}

// TestShardedBoundaryAnchors pins the hard cases called out by the scale-out
// design: query intervals narrower than one shard, intervals and durability
// windows anchored exactly on shard boundary times, and tau wider than a
// whole shard.
func TestShardedBoundaryAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randDataset(rng, 240, 2, false)
	s := randScorer(rng, 2)
	for _, shards := range []int{2, 4, 7} {
		for _, strategy := range []ShardStrategy{ByCount, ByTimeSpan} {
			se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(shards, strategy))
			eng := NewEngine(ds, testEngineOpts())
			infos := se.Shards()
			type qcase struct {
				start, end, tau int64
				anchor          Anchor
			}
			var cases []qcase
			for _, in := range infos {
				// Window length exactly the distance to the boundary, query
				// pinned on the boundary record, and a one-record interval.
				cases = append(cases,
					qcase{in.Start, in.Start, 25, LookBack},
					qcase{in.Start, in.End, in.End - in.Start, LookBack},
					qcase{in.End, in.End, 25, LookAhead},
					qcase{in.Start, in.Start + (in.End-in.Start)/8, ds.TimeSpan(), LookBack},
					qcase{in.Start, in.End, ds.TimeSpan() / 2, LookAhead},
				)
			}
			for ci, c := range cases {
				for _, k := range []int{1, 3} {
					q := Query{K: k, Tau: c.tau, Start: c.start, End: c.end, Scorer: s, Anchor: c.anchor}
					want, err := eng.DurableTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					got, err := se.DurableTopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.IDs(), want.IDs()) {
						t.Fatalf("shards=%d strategy=%v case=%d k=%d (tau=%d I=[%d,%d] anchor=%v):\n got %v\nwant %v",
							shards, strategy, ci, k, c.tau, c.start, c.end, c.anchor, got.IDs(), want.IDs())
					}
				}
			}
		}
	}
}

// TestShardedWithDurations compares per-record maximum durabilities against
// the single-engine evaluation on both anchors.
func TestShardedWithDurations(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ds := randDataset(rng, 180, 2, true)
	s := randScorer(rng, 2)
	lo, hi := ds.Span()
	eng := NewEngine(ds, testEngineOpts())
	se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(5, ByCount))
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		q := Query{K: 2, Tau: 30, Start: lo, End: hi, Scorer: s, Anchor: anchor, WithDurations: true}
		want, err := eng.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%v: %d records want %d", anchor, len(got.Records), len(want.Records))
		}
		for i := range got.Records {
			g, w := got.Records[i], want.Records[i]
			if g.ID != w.ID || g.MaxDuration != w.MaxDuration || g.FullHistory != w.FullHistory {
				t.Fatalf("%v record %d: got %+v want %+v", anchor, i, g, w)
			}
		}
	}
}

// TestShardedAlgorithmsAndErrors checks explicit strategy selection and the
// validation/rejection parity with Engine.
func TestShardedAlgorithmsAndErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := randDataset(rng, 150, 2, false)
	s := randScorer(rng, 2)
	lo, hi := ds.Span()
	se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(4, ByCount))
	want := BruteForce(ds, s, 3, 40, lo, hi, LookBack)
	for _, alg := range Algorithms() {
		res, err := se.DurableTopK(Query{K: 3, Tau: 40, Start: lo, End: hi, Scorer: s, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if got := res.IDs(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: got %v want %v", alg, got, want)
		}
		ran := alg
		if alg == SBand {
			ran = SHop // a span has no skyband ladder: pinned S-Band hops, and says so
		}
		if res.Stats.Algorithm != ran {
			t.Fatalf("%v: stats algorithm %v, want %v", alg, res.Stats.Algorithm, ran)
		}
	}

	if _, err := se.DurableTopK(Query{K: 0, Tau: 1, Start: lo, End: hi, Scorer: s}); err == nil {
		t.Fatal("k=0 accepted")
	}
	nonMono, err := score.NewCosine([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.DurableTopK(Query{K: 1, Tau: 1, Start: lo, End: hi, Scorer: nonMono, Algorithm: SBand}); err == nil {
		t.Fatal("s-band accepted a non-monotone scorer")
	}
	if _, err := se.DurableTopK(Query{K: 1, Tau: 10, Lead: 5, Start: lo, End: hi, Scorer: s, Anchor: General, Algorithm: TBase}); err == nil {
		t.Fatal("t-base accepted a mid-anchored window")
	}
	if _, err := se.DurableTopK(Query{K: 1, Tau: 10, Lead: 5, Start: lo, End: hi, Scorer: s, Anchor: General, WithDurations: true}); err == nil {
		t.Fatal("WithDurations accepted for a mid-anchored window")
	}
}

// TestShardedProfileAndExplain checks the Querier surface beyond plain
// queries: durability profiles, most-durable reports and planning.
func TestShardedProfileAndExplain(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := randDataset(rng, 160, 2, false)
	s := randScorer(rng, 2)
	eng := NewEngine(ds, testEngineOpts())
	se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(3, ByTimeSpan))
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		want, err := eng.MostDurable(2, s, anchor, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.MostDurable(2, s, anchor, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: most-durable mismatch\n got %+v\nwant %+v", anchor, got, want)
		}
	}
	lo, hi := ds.Span()
	plan, err := se.Explain(Query{K: 3, Tau: 20, Start: lo, End: hi, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Chosen.String() == "" {
		t.Fatal("empty plan")
	}
}

// TestShardedConcurrentQueries hammers one sharded engine from many
// goroutines; run with -race to verify the pooled probes and the pooled
// mirrored span columns of look-ahead queries.
func TestShardedConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	ds := randDataset(rng, 300, 2, false)
	s := randScorer(rng, 2)
	lo, hi := ds.Span()
	se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(4, ByCount))
	wantBack := BruteForce(ds, s, 3, 25, lo, hi, LookBack)
	wantAhead := BruteForce(ds, s, 3, 25, lo, hi, LookAhead)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			anchor, want := LookBack, wantBack
			if g%2 == 1 {
				anchor, want = LookAhead, wantAhead
			}
			res, err := se.DurableTopK(Query{K: 3, Tau: 25, Start: lo, End: hi, Scorer: s, Anchor: anchor})
			if err != nil {
				errs <- err.Error()
				return
			}
			got := res.IDs()
			if len(got) == 0 && len(want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, want) {
				errs <- anchor.String() + " disagreed under concurrency"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
