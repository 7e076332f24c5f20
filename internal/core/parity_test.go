package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
)

// raceEnabled is set by race_test.go under the race detector, whose sync.Pool
// drops pooled objects at random: allocation counts are meaningless there.
var raceEnabled bool

// TestOneEvaluatorOneCost holds every engine shape to one evaluator: the
// same records — durations included — and the same strategy on Engine,
// LiveEngine, ShardedEngine{1, 3} and a LiveShardedEngine with sealed shards
// and a tail, the same plan on Engine and LiveEngine, and no shape paying
// more allocations per query than a plain Engine's look-back query does.
func TestOneEvaluatorOneCost(t *testing.T) {
	// A collection empties the probe and scratch pools, and a goroutine that
	// moves to another P misses the one it put its probe into; a query on a
	// fresh probe grows its arena. The counts below are the steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rng := rand.New(rand.NewSource(32))
	ds := randDataset(rng, 4000, 2, false)
	s := randScorer(rng, 2)
	opts := testEngineOpts()

	eng := NewEngine(ds, opts)
	live, err := NewLiveEngine(2, opts, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lse, err := NewLiveShardedEngine(2, opts, LiveOptions{}, LiveShardOptions{SealRows: 1500})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.Len(); i++ {
		if _, _, err := live.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	if n, tail := lse.NumShards(), lse.TailLen(); n != 3 || tail == 0 {
		t.Fatalf("live sharded engine has %d shards and a %d-row tail, want 2 sealed and a tail", n, tail)
	}
	shapes := []struct {
		name string
		q    Querier
		// gated shapes allocate no more than a plain Engine's look-back query.
		gated bool
	}{
		{"Engine", eng, true},
		{"LiveEngine", live, true},
		{"ShardedEngine{1}", NewShardedEngine(ds, opts, ShardOptions{Shards: 1}), true},
		{"ShardedEngine{3}", NewShardedEngine(ds, opts, ShardOptions{Shards: 3}), true},
		{"LiveShardedEngine", lse, false},
	}

	lo, hi := ds.Span()
	span := hi - lo
	for _, alg := range []Algorithm{TBase, THop, SHop} {
		for _, anchor := range []Anchor{LookBack, LookAhead} {
			for _, durations := range []bool{false, true} {
				q := Query{
					K: 10, Tau: span / 10, Start: lo + span/4, End: lo + 3*span/4,
					Scorer: s, Algorithm: alg, Anchor: anchor, WithDurations: durations,
				}
				// The cheapest shape at the parent of the one-evaluator change.
				bound := 2.0
				if anchor == LookAhead {
					bound = 5
					if durations {
						bound = 6
					}
				}
				name := fmt.Sprintf("%v/%v/durations=%v", alg, anchor, durations)
				want, err := eng.DurableTopK(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Records) == 0 {
					t.Fatalf("%s: empty answer, nothing to compare", name)
				}
				for _, sh := range shapes {
					got, err := sh.q.DurableTopK(q)
					if err != nil {
						t.Fatalf("%s %s: %v", name, sh.name, err)
					}
					if !reflect.DeepEqual(got.Records, want.Records) {
						t.Fatalf("%s %s: %d records differ from Engine's %d", name, sh.name, len(got.Records), len(want.Records))
					}
					if got.Stats.Algorithm != want.Stats.Algorithm {
						t.Fatalf("%s %s: ran %v, Engine ran %v", name, sh.name, got.Stats.Algorithm, want.Stats.Algorithm)
					}
					if !sh.gated || raceEnabled {
						continue
					}
					allocs := testing.AllocsPerRun(10, func() {
						if _, err := sh.q.DurableTopK(q); err != nil {
							t.Fatal(err)
						}
					})
					if allocs > bound {
						t.Errorf("%s %s: %.0f allocs per query, want <= %.0f", name, sh.name, allocs, bound)
					}
				}
				q.Algorithm = Auto
				pe, err := eng.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				pl, err := live.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pe, pl) {
					t.Fatalf("%s: LiveEngine plans %+v, Engine plans %+v", name, pl, pe)
				}
			}
		}
	}
}
