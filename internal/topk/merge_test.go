package topk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

// mergeDS builds the three attribute regimes the split property is hardest
// on: small-integer NBA-like columns (scores tie constantly, so only the
// recency tie-break orders them), a column seasoned with ±Inf (scores at both
// ends of the float range), and one seasoned with NaN.
func mergeDS(rng *rand.Rand, kind string, n int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	t := int64(0)
	for i := range rows {
		t += int64(1 + rng.Intn(3))
		times[i] = t
		row := []float64{float64(rng.Intn(4)), float64(rng.Intn(3))}
		if rng.Intn(6) == 0 {
			switch kind {
			case "inf":
				row[0] = math.Inf(1 - 2*rng.Intn(2))
			case "nan":
				row[0] = math.NaN()
			}
		}
		rows[i] = row
	}
	return data.MustNew(times, rows)
}

// splitRange cuts [lo, hi) into 1..6 consecutive pieces (some possibly
// empty) and returns them in a random order: the merge must not depend on
// where the cuts fall or which piece goes first.
func splitRange(rng *rand.Rand, lo, hi int) [][2]int {
	cuts := []int{lo, hi}
	for i := rng.Intn(6); i > 0; i-- {
		cuts = append(cuts, lo+rng.Intn(hi-lo+1))
	}
	for i := 1; i < len(cuts); i++ { // insertion sort; a handful of cuts
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	pieces := make([][2]int, 0, len(cuts)-1)
	for i := 1; i < len(cuts); i++ {
		pieces = append(pieces, [2]int{cuts[i-1], cuts[i]})
	}
	rng.Shuffle(len(pieces), func(i, j int) { pieces[i], pieces[j] = pieces[j], pieces[i] })
	return pieces
}

// mergePieces answers [lo, hi) as one merge over the pieces, each served by
// a different structure in turn: the whole-range index, an index of its own
// over just the piece's rows (what a shard is), and a forest view over them
// (what a live tail is). shift is applied on top so ids land in a foreign id
// space, as a region block needs.
func mergePieces(rng *rand.Rand, ds *data.Dataset, whole *Index, s score.Scorer, k int, pieces [][2]int, shift int, sc *Scratch) []Item {
	m := sc.Merger(k)
	for i, p := range pieces {
		a, b := p[0], p[1]
		switch i % 3 {
		case 0:
			whole.MergeRange(&m, s, a, b, shift)
		case 1:
			if a < b {
				own := Build(ds.Slice(a, b), Options{LengthThreshold: 1 + rng.Intn(8)})
				own.MergeRange(&m, s, 0, b-a, a+shift)
			}
		default:
			f := newForest(ds.Dims(), Options{LengthThreshold: 2 + rng.Intn(6)})
			for r := a; r < b; r++ {
				if err := f.Append(ds.Time(r), ds.Attrs(r)); err != nil {
					panic(err)
				}
			}
			f.Snapshot(b-a).MergeRange(&m, s, 0, b-a, a+shift)
		}
	}
	return m.Finish(nil)
}

// TestMergeRangeSplitsMatchWholeRange is the merge primitive's contract: a
// range merged piecewise — any cuts, any piece order, each piece behind its
// own index or forest, ids shifted — equals QueryRangeInto over the whole
// range bit for bit. Arrival times are unique, so (score desc, time desc) is
// a total order whenever scores compare, including under heavy ties, ±Inf
// scores and k beyond the range.
func TestMergeRangeSplitsMatchWholeRange(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	sc := GetScratch()
	defer PutScratch(sc)
	scorers := []score.Scorer{
		score.MustLinear(1, 1),    // monotone: skyline bounds
		score.MustLinear(1, -0.5), // mixed signs: MBR bounds
		scalarOnly{score.MustLinear(2, 1)},
	}
	single, err := score.NewSingle(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		kind := []string{"ties", "inf"}[trial%2]
		n := 30 + rng.Intn(400)
		ds := mergeDS(rng, kind, n)
		whole := Build(ds, Options{LengthThreshold: 1 + rng.Intn(16)})
		for q := 0; q < 12; q++ {
			s := scorers[rng.Intn(len(scorers))]
			if kind == "inf" {
				s = single // ±Inf in one column: a sum could turn them into NaN
			}
			lo := rng.Intn(n)
			hi := lo + 1 + rng.Intn(n-lo)
			k := 1 + rng.Intn(12)
			if q%4 == 0 {
				k = hi - lo + rng.Intn(5) // at and beyond the range size
			}
			shift := rng.Intn(2000) - 1000
			want := whole.QueryRangeInto(s, k, lo, hi, sc, nil)
			got := mergePieces(rng, ds, whole, s, k, splitRange(rng, lo, hi), shift, sc)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%s) k=%d [%d,%d): %d items, want %d", trial, kind, k, lo, hi, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if int(g.ID) != int(w.ID)+shift || g.Time != w.Time || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
					t.Fatalf("trial %d (%s) k=%d [%d,%d) shift %d item %d: got %+v, want %+v",
						trial, kind, k, lo, hi, shift, i, g, w)
				}
			}
		}
	}
}

// TestMergeRangeNaNScores: NaN compares with nothing, so with NaN scores in
// play "the top-k" is whatever the visiting order makes it and no two
// traversals need agree. What every merge still owes: the uncut merge is the
// plain query bit for bit, and any cut returns min(k, span) distinct records
// of the range, never a panic or a duplicate.
func TestMergeRangeNaNScores(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sc := GetScratch()
	defer PutScratch(sc)
	s := score.MustLinear(1, 1)
	for trial := 0; trial < 40; trial++ {
		n := 30 + rng.Intn(300)
		ds := mergeDS(rng, "nan", n)
		whole := Build(ds, Options{LengthThreshold: 1 + rng.Intn(16)})
		lo := rng.Intn(n)
		hi := lo + 1 + rng.Intn(n-lo)
		k := 1 + rng.Intn(hi-lo+3)

		want := whole.QueryRangeInto(s, k, lo, hi, sc, nil)
		m := sc.Merger(k)
		whole.MergeRange(&m, s, lo, hi, 0)
		if got := m.Finish(nil); !itemsEqualNaN(got, want) {
			t.Fatalf("trial %d: uncut merge differs from the query:\n got  %v\n want %v", trial, got, want)
		}

		got := mergePieces(rng, ds, whole, s, k, splitRange(rng, lo, hi), 0, sc)
		if len(got) != min(k, hi-lo) {
			t.Fatalf("trial %d k=%d [%d,%d): %d items", trial, k, lo, hi, len(got))
		}
		seen := make(map[int32]bool, len(got))
		for _, it := range got {
			if int(it.ID) < lo || int(it.ID) >= hi || seen[it.ID] || it.Time != ds.Time(int(it.ID)) {
				t.Fatalf("trial %d: bad or repeated item %+v in %v", trial, it, got)
			}
			seen[it.ID] = true
		}
	}
}

// TestMergerScratchCheckedOut: a probe that reuses the Scratch while a merge
// is open — a foreign building block answering through QueryRangeInto — must
// not disturb the merge.
func TestMergerScratchCheckedOut(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ds := randDS(rng, 300, 2, 5)
	idx := Build(ds, Options{LengthThreshold: 8})
	s := score.MustLinear(1, 2)
	sc := GetScratch()
	defer PutScratch(sc)
	want := idx.QueryRangeInto(s, 7, 0, 300, sc, nil)

	m := sc.Merger(7)
	idx.MergeRange(&m, s, 0, 150, 0)
	if kth, ok := m.Kth(); !ok || kth.ID >= 150 {
		t.Fatalf("Kth after half the range: %+v, %v", kth, ok)
	}
	for _, it := range idx.QueryRangeInto(s, 7, 150, 300, sc, nil) { // nested use of sc
		m.Offer(it)
	}
	if got := m.Finish(nil); !itemsEqual(got, want) {
		t.Fatalf("nested probe corrupted the merge:\n got  %v\n want %v", got, want)
	}
	if m := sc.Merger(0); m.K() != 0 {
		t.Fatal("K")
	} else {
		m.Offer(Item{})
		idx.MergeRange(&m, s, 0, 300, 0)
		if _, ok := m.Kth(); ok || len(m.Finish(nil)) != 0 {
			t.Fatal("a k=0 merge must stay empty")
		}
	}
}
