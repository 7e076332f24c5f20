package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/topk"
)

// TestConcurrentQueries exercises the engine's concurrency contract: many
// goroutines querying one engine, look-ahead queries over pooled mirrored
// columns and the lazily built skyband ladders included. Run with -race to
// verify the locking.
func TestConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	ds := randDataset(rng, 400, 2, false)
	eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 16}})
	lo, hi := ds.Span()
	s := randScorer(rng, 2)

	type job struct {
		alg    Algorithm
		anchor Anchor
	}
	var jobs []job
	for _, alg := range Algorithms() {
		jobs = append(jobs, job{alg, LookBack}, job{alg, LookAhead})
	}

	// Precompute expected answers sequentially.
	want := map[job][]int{}
	for _, j := range jobs {
		want[j] = BruteForce(ds, s, 3, 20, lo, hi, j.anchor)
	}

	var wg sync.WaitGroup
	errs := make(chan string, len(jobs)*4)
	for round := 0; round < 4; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				res, err := eng.DurableTopK(Query{
					K: 3, Tau: 20, Start: lo, End: hi,
					Scorer: s, Algorithm: j.alg, Anchor: j.anchor,
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				got := res.IDs()
				if len(got) == 0 && len(want[j]) == 0 {
					return
				}
				if !reflect.DeepEqual(got, want[j]) {
					errs <- j.alg.String() + "/" + j.anchor.String() + " disagreed under concurrency"
				}
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
