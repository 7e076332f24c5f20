package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// randDataset builds a dataset with random gaps and attribute values; with
// probability tieProb each attribute is drawn from a tiny integer domain to
// force heavy score ties.
func randDataset(rng *rand.Rand, n, d int, ties bool) *data.Dataset {
	times := make([]int64, n)
	t := int64(rng.Intn(5))
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		times[i] = t
		t += int64(1 + rng.Intn(4))
		row := make([]float64, d)
		for j := range row {
			if ties {
				row[j] = float64(rng.Intn(4))
			} else {
				row[j] = rng.Float64() * 100
			}
		}
		rows[i] = row
	}
	return data.MustNew(times, rows)
}

func randScorer(rng *rand.Rand, d int) score.Scorer {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64()
	}
	s, err := score.NewLinear(w)
	if err != nil {
		panic(err)
	}
	return s
}

func TestAlgorithmsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(300)
		d := 1 + rng.Intn(4)
		ties := trial%3 == 0
		ds := randDataset(rng, n, d, ties)
		s := randScorer(rng, d)
		eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 8, MaxNodeSkyline: 8}})

		lo, hi := ds.Span()
		span := hi - lo
		for qi := 0; qi < 4; qi++ {
			k := 1 + rng.Intn(6)
			tau := int64(rng.Intn(int(span) + 2))
			start := lo + int64(rng.Intn(int(span)+1))
			end := start + int64(rng.Intn(int(hi-start)+1))
			anchor := LookBack
			if qi%2 == 1 {
				anchor = LookAhead
			}
			want := BruteForce(ds, s, k, tau, start, end, anchor)
			for _, alg := range Algorithms() {
				q := Query{K: k, Tau: tau, Start: start, End: end, Scorer: s, Algorithm: alg, Anchor: anchor}
				res, err := eng.DurableTopK(q)
				if err != nil {
					t.Fatalf("trial %d %v: %v", trial, alg, err)
				}
				got := res.IDs()
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d alg=%v anchor=%v n=%d d=%d k=%d tau=%d I=[%d,%d] ties=%v:\n got %v\nwant %v",
						trial, alg, anchor, n, d, k, tau, start, end, ties, got, want)
				}
			}
		}
	}
}

func TestMaxDurationMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(200)
		d := 1 + rng.Intn(3)
		ds := randDataset(rng, n, d, trial%2 == 0)
		s := randScorer(rng, d)
		eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 4}})
		for probe := 0; probe < 10; probe++ {
			id := rng.Intn(n)
			k := 1 + rng.Intn(4)
			anchor := LookBack
			if probe%2 == 1 {
				anchor = LookAhead
			}
			wantDur, wantFull := BruteMaxDuration(ds, s, k, id, anchor)
			gotDur, gotFull := eng.MaxDuration(id, k, s, anchor)
			if gotDur != wantDur || gotFull != wantFull {
				t.Fatalf("trial %d id=%d k=%d anchor=%v: got (%d,%v) want (%d,%v)",
					trial, id, k, anchor, gotDur, gotFull, wantDur, wantFull)
			}
		}
		// Bad input reports "not computed", in either direction.
		for _, anchor := range []Anchor{LookBack, LookAhead} {
			for _, bad := range []struct {
				name  string
				id, k int
				s     score.Scorer
			}{
				{"k=0", n / 2, 0, s},
				{"nil scorer", n / 2, 1, nil},
				{"id=Len", n, 1, s},
				{"id=-1", -1, 1, s},
			} {
				if dur, full := eng.MaxDuration(bad.id, bad.k, bad.s, anchor); dur != -1 || full {
					t.Fatalf("%s %v: got (%d,%v) want (-1,false)", bad.name, anchor, dur, full)
				}
			}
		}
	}
}
