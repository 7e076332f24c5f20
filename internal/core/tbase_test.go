package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// seriesDataset has one attribute per tick, in the order given.
func seriesDataset(vals []float64) *data.Dataset {
	times := make([]int64, len(vals))
	rows := make([][]float64, len(vals))
	for i, v := range vals {
		times[i] = int64(i + 1)
		rows[i] = []float64{v}
	}
	return data.MustNew(times, rows)
}

// TestTBaseWindowCases pins T-Base's 2k-deep sliding buffer against the oracle
// on the window shapes a random differential trial reaches only by chance, and
// checks how many from-scratch recomputations each needed (maint < 0: any).
func TestTBaseWindowCases(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 600
	rising, falling, saw, noise := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range rising {
		rising[i] = float64(i)
		falling[i] = float64(n - i)
		saw[i] = float64(i%37) + float64(i%5)/8 // climbs, collapses, climbs: the buffer drains and refills
		noise[i] = float64(rng.Intn(50))
	}
	s := score.MustLinear(1)
	cases := []struct {
		name   string
		ds     *data.Dataset
		k      int
		tau    int64
		anchor Anchor
		maint  int
	}{
		// Windows hold fewer than k rows: the buffer is the whole window, every
		// record is durable, and nothing is ever recomputed after the first fill.
		{"k beyond the window", seriesDataset(noise), 40, 25, LookBack, 1},
		{"k beyond the dataset", seriesDataset(noise), n + 5, 200, LookBack, 1},
		// Between k and 2k rows per window: still the whole window, never refilled.
		{"window between k and 2k", seriesDataset(noise), 20, 29, LookBack, 1},
		{"tau zero", seriesDataset(noise), 3, 0, LookBack, 1},
		{"all tied", constantDataset(n), 4, 50, LookBack, -1},
		{"all tied, look-ahead", constantDataset(n), 4, 50, LookAhead, -1},
		{"look-ahead", seriesDataset(noise), 5, 60, LookAhead, -1},
		// Every expiring record is the window's best and every entering one its
		// worst: the buffer only drains, k spare items per recomputation.
		{"rising: drains", seriesDataset(rising), 5, 100, LookBack, 1 + (n-1)/6},
		// Every entering record is the window's best: the buffer refills from
		// entering rows alone.
		{"falling: refills from entering rows", seriesDataset(falling), 5, 100, LookBack, 1},
		{"sawtooth", seriesDataset(saw), 6, 80, LookBack, -1},
		{"sawtooth, look-ahead", seriesDataset(saw), 6, 80, LookAhead, -1},
	}
	for _, c := range cases {
		eng := NewEngine(c.ds, Options{Index: topk.Options{LengthThreshold: 8}})
		lo, hi := c.ds.Span()
		for _, ivl := range [][2]int64{{lo, hi}, {lo + (hi-lo)/3, hi - (hi-lo)/4}} {
			res, err := eng.DurableTopK(Query{K: c.k, Tau: c.tau, Start: ivl[0], End: ivl[1], Scorer: s, Algorithm: TBase, Anchor: c.anchor})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := BruteForce(c.ds, s, c.k, c.tau, ivl[0], ivl[1], c.anchor)
			if got := res.IDs(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v: got %d records, oracle has %d\n got  %v\n want %v", c.name, ivl, len(got), len(want), got, want)
			}
			if ivl[0] == lo && c.maint >= 0 && res.Stats.MaintQueries != c.maint {
				t.Fatalf("%s: %d recomputations, want %d", c.name, res.Stats.MaintQueries, c.maint)
			}
		}
	}
}

// TestTBaseRecomputesPerKAnswers: on a dense answer — k = 50, tau = 1 % of 20k
// rows, thousands of durable records — the 2k-deep buffer is recomputed at
// most once per k answers (a k-deep buffer recomputed once per answer).
func TestTBaseRecomputesPerKAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ds := randDataset(rng, 20_000, 2, true)
	eng := NewEngine(ds, Options{})
	lo, hi := ds.Span()
	const k = 50
	res, err := eng.DurableTopK(Query{K: k, Tau: (hi - lo) / 100, Start: lo, End: hi, Scorer: score.MustLinear(0.6, 0.4), Algorithm: TBase})
	if err != nil {
		t.Fatal(err)
	}
	answers := len(res.Records)
	if answers < 20*k {
		t.Fatalf("only %d answers: not the dense case this test is about", answers)
	}
	if got, limit := res.Stats.MaintQueries, 1+answers/k; got > limit {
		t.Fatalf("%d recomputations for %d answers, want at most %d", got, answers, limit)
	}
}

// mapPartialCache is an unbounded PartialCache counting its traffic.
type mapPartialCache struct {
	mu         sync.Mutex
	m          map[PartialKey][]int32
	hits, puts int
}

func (c *mapPartialCache) GetPartial(key PartialKey) ([]int32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids, ok := c.m[key]
	if ok {
		c.hits++
	}
	return ids, ok
}

func (c *mapPartialCache) PutPartial(key PartialKey, ids []int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = ids
	c.puts++
}

// TestShardInteriorsThroughPartialCache: shard interiors are evaluated on the
// fan-out worker's probe, in the shard's id space — mirrored for look-ahead —
// and published to the partial cache as ascending global ids. A miss and the
// hit that follows must both equal the oracle, for every strategy.
func TestShardInteriorsThroughPartialCache(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	ds := randDataset(rng, 900, 2, true)
	s := score.MustLinear(0.7, 0.3)
	lo, hi := ds.Span()
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		for _, alg := range Algorithms() {
			se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(5, ByCount, 4))
			pc := &mapPartialCache{m: make(map[PartialKey][]int32)}
			se.SetPartialCache(pc)
			q := Query{K: 3, Tau: (hi - lo) / 40, Start: lo + 5, End: hi - 5, Scorer: s, Algorithm: alg, Anchor: anchor}
			want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, anchor)
			for pass, name := range []string{"miss", "hit"} {
				res, err := se.DurableTopK(q)
				if err != nil {
					t.Fatalf("%v %v: %v", anchor, alg, err)
				}
				if got := res.IDs(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v on a cache %s: got %d records, oracle has %d\n got  %v\n want %v",
						anchor, alg, name, len(got), len(want), got, want)
				}
				if pass == 0 && (pc.puts != se.NumShards() || pc.hits != 0) {
					t.Fatalf("%v %v: first pass made %d puts and %d hits over %d shards", anchor, alg, pc.puts, pc.hits, se.NumShards())
				}
				if pass == 1 && (pc.puts != se.NumShards() || pc.hits != se.NumShards()) {
					t.Fatalf("%v %v: second pass left %d puts and %d hits over %d shards", anchor, alg, pc.puts, pc.hits, se.NumShards())
				}
			}
			for key, ids := range pc.m {
				for i, id := range ids {
					if int(id) < key.Lo || int(id) >= key.Hi || (i > 0 && ids[i-1] >= id) {
						t.Fatalf("%v %v: cached interior %v is not ascending global ids of [%d, %d)", anchor, alg, ids, key.Lo, key.Hi)
					}
				}
			}
		}
	}
}
