package topk

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

func randDS(rng *rand.Rand, n, d int, intDomain int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(1 + rng.Intn(3))
		times[i] = t
		row := make([]float64, d)
		for j := range row {
			if intDomain > 0 {
				row[j] = float64(rng.Intn(intDomain))
			} else {
				row[j] = rng.Float64() * 50
			}
		}
		rows[i] = row
	}
	return data.MustNew(times, rows)
}

// naiveTopK implements Q(s, k, [t1,t2]) by sorting the window.
func naiveTopK(ds *data.Dataset, s score.Scorer, k int, t1, t2 int64) []Item {
	lo, hi := ds.IndexRange(t1, t2)
	items := make([]Item, 0, hi-lo)
	for i := lo; i < hi; i++ {
		items = append(items, Item{ID: int32(i), Time: ds.Time(i), Score: s.Score(ds.Attrs(i))})
	}
	sort.Slice(items, func(i, j int) bool { return Better(items[i], items[j]) })
	if len(items) > k {
		items = items[:k]
	}
	return items
}

func itemsEqual(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

func testAgainstNaive(t *testing.T, opts Options, scorerFor func(*rand.Rand, int) score.Scorer) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(600)
		d := 1 + rng.Intn(4)
		intDomain := 0
		if trial%2 == 0 {
			intDomain = 5 // force score ties
		}
		ds := randDS(rng, n, d, intDomain)
		idx := Build(ds, opts)
		s := scorerFor(rng, d)
		lo, hi := ds.Span()
		for q := 0; q < 12; q++ {
			k := 1 + rng.Intn(8)
			t1 := lo + int64(rng.Intn(int(hi-lo)+1)) - 3
			t2 := t1 + int64(rng.Intn(int(hi-lo)+2))
			got := idx.Query(s, k, t1, t2)
			want := naiveTopK(ds, s, k, t1, t2)
			if !itemsEqual(got, want) {
				t.Fatalf("trial %d q=%d n=%d d=%d k=%d [%d,%d]:\n got %v\nwant %v",
					trial, q, n, d, k, t1, t2, got, want)
			}
		}
	}
}

func linearFor(rng *rand.Rand, d int) score.Scorer {
	w := make([]float64, d)
	for i := range w {
		w[i] = rng.Float64()
	}
	return score.MustLinear(w...)
}

func TestQueryMatchesNaiveLinear(t *testing.T) {
	testAgainstNaive(t, Options{LengthThreshold: 8, MaxNodeSkyline: 8}, linearFor)
}

func TestQueryMatchesNaiveMBROnly(t *testing.T) {
	testAgainstNaive(t, Options{LengthThreshold: 16, MaxNodeSkyline: -1}, linearFor)
}

func TestQueryMatchesNaiveMixedSignWeights(t *testing.T) {
	testAgainstNaive(t, Options{LengthThreshold: 8}, func(rng *rand.Rand, d int) score.Scorer {
		w := make([]float64, d)
		for i := range w {
			w[i] = rng.Float64()*2 - 1 // non-monotone linear
		}
		return score.MustLinear(w...)
	})
}

func TestQueryMatchesNaiveCosine(t *testing.T) {
	testAgainstNaive(t, Options{LengthThreshold: 8}, func(rng *rand.Rand, d int) score.Scorer {
		w := make([]float64, d)
		for i := range w {
			w[i] = 0.1 + rng.Float64()
		}
		s, err := score.NewCosine(w)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestQueryMatchesNaiveUnboundedScorer(t *testing.T) {
	// A scorer without Bounder/MonotoneAware still yields correct results
	// (degenerating to a scan).
	type opaque struct{ score.Scorer }
	testAgainstNaive(t, Options{LengthThreshold: 8}, func(rng *rand.Rand, d int) score.Scorer {
		return opaque{linearFor(rng, d)}
	})
}

func TestTieBreakPrefersRecency(t *testing.T) {
	// Three equal scores: top-2 must be the two most recent.
	ds := data.MustNew(
		[]int64{1, 2, 3},
		[][]float64{{5}, {5}, {5}},
	)
	idx := Build(ds, Options{LengthThreshold: 1})
	got := idx.Query(score.MustLinear(1), 2, 1, 3)
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 1 {
		t.Fatalf("tie-break wrong: %v", got)
	}
}

func TestQueryEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := randDS(rng, 50, 2, 0)
	idx := Build(ds, Options{})
	s := score.MustLinear(1, 1)
	if items := idx.Query(s, 0, 0, 100); items != nil {
		t.Fatal("k=0 must return nil")
	}
	lo, hi := ds.Span()
	if items := idx.Query(s, 3, hi+1, hi+100); items != nil {
		t.Fatal("empty window must return nil")
	}
	if items := idx.Query(s, 500, lo, hi); len(items) != ds.Len() {
		t.Fatalf("k>n must return all records, got %d", len(items))
	}
	if items := idx.Query(s, 3, 50, 10); items != nil {
		t.Fatal("inverted window must return nil")
	}
	single := idx.Query(s, 1, ds.Time(7), ds.Time(7))
	if len(single) != 1 || single[0].ID != 7 {
		t.Fatalf("point window: %v", single)
	}
}

func TestMember(t *testing.T) {
	ds := data.MustNew(
		[]int64{1, 2, 3, 4},
		[][]float64{{10}, {20}, {20}, {5}},
	)
	idx := Build(ds, Options{LengthThreshold: 1})
	s := score.MustLinear(1)
	// Record 3 (score 5): three records score strictly higher within [1,4],
	// so it is not in the top-3 but is in the top-4.
	if ok, _ := idx.Member(s, 3, 1, 4, 3); ok {
		t.Fatal("score 5 must not be top-3")
	}
	if ok, _ := idx.Member(s, 4, 1, 4, 3); !ok {
		t.Fatal("score 5 must be top-4")
	}
	// Record 1 (score 20, tied with record 2): fewer than 1 record is
	// strictly higher, so it is top-1 under the paper's definition.
	if ok, _ := idx.Member(s, 1, 1, 4, 1); !ok {
		t.Fatal("tied max must be top-1")
	}
}

func TestStats(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := randDS(rng, 1000, 2, 0)
	idx := Build(ds, Options{LengthThreshold: 64})
	st := idx.Stats()
	if st.Nodes < 15 {
		t.Fatalf("expected a real tree, got %d nodes", st.Nodes)
	}
	if st.SkylineNodes == 0 || st.SkylineEntries == 0 {
		t.Fatal("IND data must retain skyline summaries")
	}
	if st.MaxSkyline > DefaultMaxNodeSkyline {
		t.Fatalf("skyline cap violated: %d", st.MaxSkyline)
	}
}

func TestOptionsDefaults(t *testing.T) {
	ds := randDS(rand.New(rand.NewSource(4)), 10, 1, 0)
	idx := Build(ds, Options{})
	if got := idx.Options().LengthThreshold; got != DefaultLengthThreshold {
		t.Fatalf("LengthThreshold=%d", got)
	}
	if got := idx.Options().MaxNodeSkyline; got != DefaultMaxNodeSkyline {
		t.Fatalf("MaxNodeSkyline=%d", got)
	}
}

func BenchmarkBuildIND100k(b *testing.B) {
	ds := randDS(rand.New(rand.NewSource(1)), 100_000, 2, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(ds, Options{})
	}
}

func BenchmarkQueryIND100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := randDS(rng, 100_000, 2, 0)
	idx := Build(ds, Options{})
	s := score.MustLinear(0.3, 0.7)
	lo, hi := ds.Span()
	span := hi - lo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := lo + rng.Int63n(span)
		idx.Query(s, 10, t2-span/10, t2)
	}
}

func TestQueryRangeClamping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := randDS(rng, 40, 2, 0)
	idx := Build(ds, Options{LengthThreshold: 4})
	s := score.MustLinear(1, 1)
	// Out-of-range bounds clamp rather than panic.
	if items := idx.QueryRange(s, 3, -10, 1000); len(items) != 3 {
		t.Fatalf("clamped range: %d items", len(items))
	}
	if items := idx.QueryRange(s, 3, 20, 20); items != nil {
		t.Fatal("empty range must return nil")
	}
	full := idx.QueryRange(s, 40, 0, 40)
	if len(full) != 40 {
		t.Fatalf("full range: %d items", len(full))
	}
	for i := 1; i < len(full); i++ {
		if Better(full[i], full[i-1]) {
			t.Fatal("results must be ordered")
		}
	}
}

// TestIndexRebase checks that an index rebased onto a copy of its dataset in
// other storage answers every probe exactly as the original, reads only the
// copy, and refuses a dataset of another shape.
func TestIndexRebase(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	ds := randDS(rng, 700, 2, 6) // integer attributes: score ties everywhere
	x := Build(ds, Options{LengthThreshold: 8, MaxNodeSkyline: 8})
	cp, err := data.NewFlat(append([]int64(nil), ds.Times()...), append([]float64(nil), ds.FlatAttrs()...), 2)
	if err != nil {
		t.Fatal(err)
	}
	y := x.Rebase(cp)
	if y.Dataset() != cp || &y.times[0] != &cp.Times()[0] || &y.flat[0] != &cp.FlatAttrs()[0] {
		t.Fatal("the rebased index still reads the old storage")
	}
	s := score.MustLinear(0.3, 0.7)
	sc := GetScratch()
	defer PutScratch(sc)
	for trial := 0; trial < 200; trial++ {
		lo := rng.Intn(ds.Len())
		hi := lo + 1 + rng.Intn(ds.Len()-lo)
		k := 1 + rng.Intn(12)
		for _, mirror := range []bool{false, true} {
			var want, got []Item
			for i, idx := range []*Index{x, y} {
				m := sc.Merger(k)
				if mirror {
					idx.MergeRangeMirrored(&m, s, lo, hi, ds.Len()-1)
				} else {
					idx.MergeRange(&m, s, lo, hi, 0)
				}
				if i == 0 {
					want = m.Finish(nil)
				} else {
					got = m.Finish(nil)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("[%d,%d) k=%d mirror=%v: %d items, want %d", lo, hi, k, mirror, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("[%d,%d) k=%d mirror=%v: item %d is %+v, want %+v", lo, hi, k, mirror, i, got[i], want[i])
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rebase over a shorter dataset did not panic")
		}
	}()
	x.Rebase(cp.Prefix(10))
}
