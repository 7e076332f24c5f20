package topk

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/score"
)

// memoPiece is one structure serving rows [lo, hi) of a dataset: an index of
// its own (what a shard is) or a forest view (what a live tail is: chunk
// trees plus an unindexed buffer).
type memoPiece struct {
	lo, hi int
	idx    *Index
	view   *View
}

func (p *memoPiece) mergeRange(m *Merger, s score.Scorer, lo, hi, shift int) {
	if p.idx != nil {
		p.idx.MergeRange(m, s, lo-p.lo, hi-p.lo, p.lo+shift)
	} else {
		p.view.MergeRange(m, s, lo-p.lo, hi-p.lo, p.lo+shift)
	}
}

// memoPieces cuts ds into consecutive pieces, alternating between indexes and
// forest views.
func memoPieces(rng *rand.Rand, ds *data.Dataset, count int) []memoPiece {
	n := ds.Len()
	pieces := make([]memoPiece, 0, count)
	for i := 0; i < count; i++ {
		p := memoPiece{lo: i * n / count, hi: (i + 1) * n / count}
		if p.lo == p.hi {
			continue
		}
		if i%2 == 0 {
			p.idx = Build(ds.Slice(p.lo, p.hi), Options{LengthThreshold: 2 + rng.Intn(12)})
		} else {
			f := newForest(ds.Dims(), Options{LengthThreshold: 2 + rng.Intn(6)})
			for r := p.lo; r < p.hi; r++ {
				if err := f.Append(ds.Time(r), ds.Attrs(r)); err != nil {
					panic(err)
				}
			}
			p.view = f.Snapshot(p.hi - p.lo)
		}
		pieces = append(pieces, p)
	}
	return pieces
}

// memoProbe is one probe of a sequence: a plain query of the whole index, or
// (pieces set) one merge continued across every structure its range touches.
type memoProbe struct {
	k, lo, hi, shift int
	pieces           bool
}

func (pb memoProbe) run(sc *Scratch, s score.Scorer, whole *Index, pieces []memoPiece) []Item {
	if !pb.pieces {
		return whole.QueryRangeInto(s, pb.k, pb.lo, pb.hi, sc, nil)
	}
	m := sc.Merger(pb.k)
	for i := range pieces {
		p := &pieces[i]
		if a, z := max(pb.lo, p.lo), min(pb.hi, p.hi); a < z {
			p.mergeRange(&m, s, a, z, pb.shift)
		}
	}
	return m.Finish(nil)
}

func itemsIdentical(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Time != b[i].Time || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestMemoSessionChangesNoAnswer is the memo's contract: a sequence of probes
// with one scorer on one Scratch returns inside a memo session exactly what it
// returns outside one — clipped and shifted ranges, heavy ties, ±Inf scores, k
// beyond the range, index and forest-view pieces, merges continued across
// structures. With NaN scores in the probed range the order is not total and
// no two traversals need agree (see TestMergeRangeNaNScores); such probes must
// still return min(k, span) distinct records of the range, and a leaf holding
// a NaN must stay unranked however often it is visited.
func TestMemoSessionChangesNoAnswer(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	single, err := score.NewSingle(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	scorers := []score.Scorer{
		score.MustLinear(1, 1),    // monotone: skyline bounds
		score.MustLinear(1, -0.5), // mixed signs: MBR bounds
		scalarOnly{score.MustLinear(2, 1)},
	}
	for trial := 0; trial < 90; trial++ {
		kind := []string{"ties", "inf", "nan"}[trial%3]
		n := 40 + rng.Intn(500)
		ds := mergeDS(rng, kind, n)
		whole := Build(ds, Options{LengthThreshold: 1 + rng.Intn(16)})
		pieces := memoPieces(rng, ds, 1+rng.Intn(6))
		s := scorers[rng.Intn(len(scorers))]
		if kind == "inf" {
			s = single // ±Inf in one column: a sum could turn them into NaN
		}
		nan := make([]bool, n)
		for i := range nan {
			nan[i] = math.IsNaN(s.Score(ds.Attrs(i)))
		}

		probes := make([]memoProbe, 60)
		for i := range probes {
			lo := rng.Intn(n)
			pb := memoProbe{k: 1 + rng.Intn(12), lo: lo, hi: lo + 1 + rng.Intn(n-lo), pieces: rng.Intn(2) == 0}
			switch rng.Intn(4) {
			case 0: // at and beyond the range size
				pb.k = pb.hi - pb.lo + rng.Intn(5)
			case 1: // a window sliding over the rows, as the durable strategies probe
				w := 1 + rng.Intn(n)
				pb.hi = n - (i*7)%n
				pb.lo = max(pb.hi-w, 0)
			}
			if pb.pieces {
				pb.shift = rng.Intn(2000) - 1000
			}
			probes[i] = pb
		}

		plain, memod := GetScratch(), GetScratch()
		memod.BeginMemo()
		for i, pb := range probes {
			want := pb.run(plain, s, whole, pieces)
			got := pb.run(memod, s, whole, pieces)
			sawNaN := false
			for r := pb.lo; r < pb.hi; r++ {
				sawNaN = sawNaN || nan[r]
			}
			if !sawNaN {
				if !itemsIdentical(got, want) {
					t.Fatalf("trial %d (%s) probe %d %+v:\n memo  %v\n plain %v", trial, kind, i, pb, got, want)
				}
				continue
			}
			if len(got) != min(pb.k, pb.hi-pb.lo) {
				t.Fatalf("trial %d probe %d %+v: %d items", trial, i, pb, len(got))
			}
			seen := make(map[int32]bool, len(got))
			for _, it := range got {
				row := int(it.ID) - pb.shift
				if row < pb.lo || row >= pb.hi || seen[it.ID] || it.Time != ds.Time(row) {
					t.Fatalf("trial %d probe %d %+v: bad or repeated item %+v in %v", trial, i, pb, it, got)
				}
				seen[it.ID] = true
			}
		}
		checkMemoLeaves(t, memod, s, whole)
		for i := range pieces {
			if pieces[i].idx != nil {
				checkMemoLeaves(t, memod, s, pieces[i].idx)
			}
		}
		PutScratch(plain)
		PutScratch(memod)
	}
}

// checkMemoLeaves inspects what the open session of sc recorded about x: a
// scored leaf's column holds the leaf's scores, a leaf is flagged NaN exactly
// when it holds one, and a NaN leaf is never ranked.
func checkMemoLeaves(t *testing.T, sc *Scratch, s score.Scorer, x *Index) {
	t.Helper()
	mm := &sc.memo
	for ti := range mm.tabs {
		if mm.tabs[ti].id != x.id {
			continue
		}
		for c, mn := range mm.tabs[ti].nodes {
			if mn.gen != mm.gen || mn.flags&memoScored == 0 {
				continue
			}
			n := &x.nodes[c]
			if n.left >= 0 {
				t.Fatalf("internal node %d has a score column", c)
			}
			hasNaN := false
			for r := n.lo; r < n.hi; r++ {
				want := s.Score(x.ds.Attrs(int(r)))
				got := mm.scores[mn.off+r-n.lo]
				hasNaN = hasNaN || math.IsNaN(want)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("leaf %d row %d: memoized score %v, want %v", c, r, got, want)
				}
			}
			if hasNaN != (mn.flags&memoNaN != 0) {
				t.Fatalf("leaf %d: holds NaN %v, flagged %v", c, hasNaN, mn.flags&memoNaN != 0)
			}
			if hasNaN && mn.flags&memoRanked != 0 {
				t.Fatalf("leaf %d holds a NaN score and was ranked", c)
			}
		}
	}
}

// TestMemoBudgets drives a session past both of its bounds — more rows than
// the row budget, more indexes than the table holds — and requires the same
// answers as without a session, with the bounds respected.
func TestMemoBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	s := score.MustLinear(0.3, 0.7)

	t.Run("rows", func(t *testing.T) {
		n := memoRowBudget + 5*DefaultLengthThreshold
		ds := randDS(rng, n, 2, 9)
		idx := Build(ds, Options{})
		plain, memod := GetScratch(), GetScratch()
		defer PutScratch(plain)
		defer PutScratch(memod)
		memod.BeginMemo()
		// k = n keeps the heap open, so every leaf is visited: twice in full
		// (the second visit ranks), then clipped.
		for _, r := range [][2]int{{0, n}, {0, n}, {n / 3, n - 7}} {
			want := idx.QueryRangeInto(s, n, r[0], r[1], plain, nil)
			got := idx.QueryRangeInto(s, n, r[0], r[1], memod, nil)
			if !itemsIdentical(got, want) {
				t.Fatalf("range %v: memo session changed the answer", r)
			}
		}
		used := memod.memo.used
		if used > memoRowBudget || used <= memoRowBudget-DefaultLengthThreshold {
			t.Fatalf("session holds %d rows, want the budget of %d filled to within a leaf", used, memoRowBudget)
		}
	})

	t.Run("indexes", func(t *testing.T) {
		ds := randDS(rng, 40*(memoIndexes+9), 2, 9)
		pieces := make([]memoPiece, memoIndexes+9)
		for i := range pieces {
			p := &pieces[i]
			p.lo, p.hi = 40*i, 40*(i+1)
			p.idx = Build(ds.Slice(p.lo, p.hi), Options{LengthThreshold: 8})
		}
		plain, memod := GetScratch(), GetScratch()
		defer PutScratch(plain)
		defer PutScratch(memod)
		memod.BeginMemo()
		for q := 0; q < 30; q++ {
			lo := rng.Intn(ds.Len())
			pb := memoProbe{k: 1 + rng.Intn(60), lo: lo, hi: lo + 1 + rng.Intn(ds.Len()-lo), shift: q, pieces: true}
			if q < 3 {
				pb.lo, pb.hi = 0, ds.Len() // every index, so the table overflows
			}
			if want, got := pb.run(plain, s, nil, pieces), pb.run(memod, s, nil, pieces); !itemsIdentical(got, want) {
				t.Fatalf("probe %+v:\n memo  %v\n plain %v", pb, got, want)
			}
		}
		if got := len(memod.memo.tabs); got != memoIndexes {
			t.Fatalf("session tracks %d indexes, want the table's %d", got, memoIndexes)
		}
	})
}

// TestMemoPinsNoIndex: the memo names indexes by id, so a Scratch that probed
// an index — and sits in the pool, or in a caller's hands — does not keep the
// index alive once its owner drops it.
func TestMemoPinsNoIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	s := score.MustLinear(1, 2)
	sc := GetScratch()
	sc.BeginMemo()
	collected := make(chan struct{})
	func() {
		idx := Build(randDS(rng, 400, 2, 5), Options{LengthThreshold: 8})
		runtime.SetFinalizer(idx, func(*Index) { close(collected) })
		for q := 0; q < 5; q++ {
			idx.QueryRangeInto(s, 5, q*10, 400-q*10, sc, nil)
		}
	}()
	PutScratch(sc)
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(sc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the index stayed reachable after its last reference was dropped")
}

// TestMemoSessionZeroAllocs: once a Scratch has served one session, opening
// another and probing inside it allocates nothing — for an index and for a
// forest's chunk trees alike.
func TestMemoSessionZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	// 67 full chunks plus a 17-record buffer: trees of 64, 2 and 1 chunks.
	const fn = 67*DefaultLengthThreshold + 17
	ds := randDS(rng, fn, 2, 0)
	idx := Build(ds, Options{})
	f := newForest(2, Options{})
	for i := 0; i < fn; i++ {
		if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := score.MustLinear(0.3, 0.7)
	sc := GetScratch()
	defer PutScratch(sc)
	view := f.Snapshot(-1)
	var dst []Item
	session := func() {
		sc.BeginMemo()
		for i := 0; i < 12; i++ {
			lo := (i * 137) % 2048
			dst = idx.QueryRangeInto(s, 10, lo, lo+1500, sc, dst)
			m := sc.Merger(10)
			view.MergeRange(&m, s, lo, lo+fn/2, 0)
			dst = m.Finish(dst)
		}
	}
	session() // warm the buffers and the memo's tables
	if allocs := testing.AllocsPerRun(50, session); allocs != 0 {
		t.Fatalf("a warmed memo session allocates %.1f times, want 0", allocs)
	}
}
