package topk

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

// newForest returns a standalone forest: one over a fresh dataset of its own.
func newForest(d int, opts Options) *Forest {
	ds, err := data.NewAppendable(d, 0)
	if err != nil {
		panic(err)
	}
	return NewForest(ds, opts)
}

// TestForestMatchesStatic checks forests against a static index over the same
// records, half of them in place over a dataset that already holds earlier
// rows: those rows are not the forest's, and its ids are local to its first.
func TestForestMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.Intn(900)
		d := 1 + rng.Intn(3)
		ds := randDS(rng, n, d, 4*(trial%2)) // alternate ties / no ties
		opts := Options{LengthThreshold: 16, MaxNodeSkyline: 16}
		idx := Build(ds, opts)
		f := newForest(d, opts)
		if trial%2 == 1 {
			shared, err := data.NewAppendable(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, pre := 0, 1+rng.Intn(300); i < pre; i++ { // earlier rows, all before ds's first time
				if err := shared.AppendRow(ds.Time(0)-int64(1000-i), ds.Attrs(0)); err != nil {
					t.Fatal(err)
				}
			}
			f = NewForest(shared, opts)
		}
		for i := 0; i < n; i++ {
			if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		if f.Len() != n {
			t.Fatalf("forest Len=%d want %d", f.Len(), n)
		}
		s := linearFor(rng, d)
		lo, hi := ds.Span()
		for q := 0; q < 15; q++ {
			k := 1 + rng.Intn(6)
			t1 := lo + int64(rng.Intn(int(hi-lo)+1)) - 2
			t2 := t1 + int64(rng.Intn(int(hi-lo)+2))
			got := f.Query(s, k, t1, t2)
			want := idx.Query(s, k, t1, t2)
			if !itemsEqual(got, want) {
				t.Fatalf("trial %d n=%d k=%d [%d,%d]:\nforest %v\nstatic %v",
					trial, n, k, t1, t2, got, want)
			}
		}
	}
}

func TestForestAppendValidation(t *testing.T) {
	f := newForest(2, Options{})
	if err := f.Append(1, []float64{1}); err == nil {
		t.Fatal("wrong dims must fail")
	}
	if err := f.Append(5, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(5, []float64{1, 2}); err == nil {
		t.Fatal("non-increasing time must fail")
	}
	if err := f.Append(4, []float64{1, 2}); err == nil {
		t.Fatal("decreasing time must fail")
	}
}

func TestForestBinaryCounterShape(t *testing.T) {
	base := 8
	f := newForest(1, Options{LengthThreshold: base})
	total := base * 11 // 11 full chunks
	for i := 0; i < total; i++ {
		if err := f.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// 11 = 1011b: expect trees of sizes 8*8, 2*8, 1*8 => 3 trees.
	if f.Trees() != 3 {
		t.Fatalf("Trees=%d want 3 (binary counter over 11 chunks)", f.Trees())
	}
	if f.Rebuilds() < 11 {
		t.Fatalf("Rebuilds=%d want >= 11", f.Rebuilds())
	}
}

func TestForestPendingBufferQueried(t *testing.T) {
	f := newForest(1, Options{LengthThreshold: 64})
	for i := 0; i < 10; i++ { // all records still in the pending buffer
		if err := f.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := f.Query(score.MustLinear(1), 3, 1, 10)
	if len(got) != 3 || got[0].Score != 9 {
		t.Fatalf("pending-buffer query wrong: %v", got)
	}
}

func TestForestAttrsCopied(t *testing.T) {
	f := newForest(1, Options{})
	row := []float64{7}
	if err := f.Append(1, row); err != nil {
		t.Fatal(err)
	}
	row[0] = 9
	if f.Attrs(0)[0] != 7 {
		t.Fatal("forest must copy appended attrs")
	}
}

// TestForestRangeMatchesStatic checks a view's append-order range probe (the
// live engine's building-block contract) against a static index over the
// same records, including ranges that straddle tree boundaries and the
// pending buffer.
func TestForestRangeMatchesStatic(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(900)
		d := 1 + rng.Intn(3)
		ds := randDS(rng, n, d, 4*(trial%2))
		opts := Options{LengthThreshold: 16, MaxNodeSkyline: 16}
		idx := Build(ds, opts)
		f := newForest(d, opts)
		for i := 0; i < n; i++ {
			if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		s := linearFor(rng, d)
		sc := GetScratch()
		view := f.Snapshot(-1)
		var dst []Item
		for q := 0; q < 25; q++ {
			k := 1 + rng.Intn(6)
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			m := sc.Merger(k)
			view.MergeRange(&m, s, lo, hi, 0)
			dst = m.Finish(dst)
			want := idx.QueryRange(s, k, lo, hi)
			if !itemsEqual(dst, want) {
				t.Fatalf("trial %d n=%d k=%d [%d,%d):\nforest %v\nstatic %v",
					trial, n, k, lo, hi, dst, want)
			}
		}
		PutScratch(sc)
	}
}

// TestForestRebuildInvariants drives interleaved Append/Query traffic and
// checks the logarithmic method's structural invariants at every step: trees
// partition the committed prefix in ascending disjoint runs of strictly
// decreasing size, the buffer holds the remainder, queries never trigger
// rebuilds, and the amortized rebuild work stays within the O(log n) bound.
func TestForestRebuildInvariants(t *testing.T) {
	const base = 8
	f := newForest(1, Options{LengthThreshold: base})
	s := score.MustLinear(1)
	total := base*21 + 3
	for i := 0; i < total; i++ {
		if err := f.Append(int64(i+1), []float64{float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
		if i%13 == 0 {
			before := f.Rebuilds()
			_ = f.Query(s, 3, 1, int64(i+1))
			if f.Rebuilds() != before {
				t.Fatalf("query performed a rebuild at n=%d", i+1)
			}
		}
		if f.buffered() >= base {
			t.Fatalf("n=%d: %d records buffered, flush threshold is %d",
				f.Len(), f.buffered(), base)
		}
	}
	// Amortization: every record is (re)indexed at most ~log2(n/base)+1
	// times on this adversarially regular stream.
	n := f.Len()
	bound := 1
	for chunk := base; chunk < n; chunk *= 2 {
		bound++
	}
	if got := float64(f.IndexedRows()) / float64(n); got > float64(bound) {
		t.Fatalf("amortized rebuild work %.2f rows/append exceeds log bound %d", got, bound)
	}
	if f.Rebuilds() < total/base {
		t.Fatalf("Rebuilds=%d want >= %d (one per full chunk)", f.Rebuilds(), total/base)
	}
	// Tree sizes strictly decrease left to right (binary-counter shape).
	sum, prev := 0, 0
	for _, ds := range f.TreeDatasets() {
		sz := ds.Len()
		sum += sz
		if prev > 0 && prev <= sz {
			t.Fatalf("tree sizes not strictly decreasing: %d then %d", prev, sz)
		}
		if sz%base != 0 {
			t.Fatalf("tree size %d not a multiple of the chunk base %d", sz, base)
		}
		prev = sz
	}
	if sum+f.buffered() != f.Len() {
		t.Fatalf("trees cover %d + buffer %d != Len %d", sum, f.buffered(), f.Len())
	}
}

// TestForestQueryZeroAllocs asserts the steady-state live probe criterion:
// with a warmed Scratch and reused dst, a probe of a forest's view — trees
// plus pending buffer — performs zero allocations.
func TestForestQueryZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	// 67 full chunks (1000011b => trees of 64, 2 and 1 chunks) plus a
	// 17-record pending buffer: the fan-out hits every merge shape.
	const n = 67*DefaultLengthThreshold + 17
	f := newForest(2, Options{})
	tt := int64(0)
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(3))
		if err := f.Append(tt, []float64{rng.Float64() * 100, rng.Float64() * 100}); err != nil {
			t.Fatal(err)
		}
	}
	if f.Trees() < 2 || f.buffered() == 0 {
		t.Fatalf("want a multi-tree forest with a pending buffer, got %d trees %d buffered",
			f.Trees(), f.buffered())
	}
	s := score.MustLinear(0.3, 0.7)
	sc := GetScratch()
	defer PutScratch(sc)
	view := f.Snapshot(-1)
	var dst []Item
	probe := func(lo, hi int) {
		m := sc.Merger(10)
		view.MergeRange(&m, s, lo, hi, 0)
		dst = m.Finish(dst)
	}
	for i := 0; i < 10; i++ { // warm the buffers
		probe(i*128, n-i)
	}
	probes := 0
	allocs := testing.AllocsPerRun(200, func() {
		lo := (probes * 37) % (n / 2)
		probe(lo, lo+n/2)
		probes++
	})
	if allocs != 0 {
		t.Fatalf("steady-state forest probe allocates %.1f times, want 0", allocs)
	}
}

func BenchmarkForestAppend(b *testing.B) {
	f := newForest(2, Options{})
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Append(int64(i+1), []float64{rng.Float64(), rng.Float64()})
	}
}

// TestForestSnapshotStable pins the append-stability contract of Snapshot:
// a view taken at prefix n answers exactly like a static index over those n
// records forever — across later appends, buffer flushes, and the tree merges
// they cascade (which pop and rewrite the parent's tree set in place) — and
// so does the view rebased onto a copy of its rows.
func TestForestSnapshotStable(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(400)
		d := 1 + rng.Intn(3)
		total := n + 1 + rng.Intn(600) // appends continuing past the snapshot
		ds := randDS(rng, total, d, 4*(trial%2))
		opts := Options{LengthThreshold: 8, MaxNodeSkyline: 16}
		f := newForest(d, opts)
		for i := 0; i < n; i++ {
			if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		view := f.Snapshot(n)
		for i := n; i < total; i++ {
			if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		if view.Len() != n {
			t.Fatalf("view grew: Len=%d want %d", view.Len(), n)
		}
		prefix := ds.Prefix(n)
		idx := Build(prefix, opts)
		moved, err := data.NewFlat(append([]int64(nil), prefix.Times()...), append([]float64(nil), prefix.FlatAttrs()...), d)
		if err != nil {
			t.Fatal(err)
		}
		rebased := view.Rebase(moved)
		s := linearFor(rng, d)
		lo, hi := ds.Span() // deliberately spans past the prefix end
		for q := 0; q < 12; q++ {
			k := 1 + rng.Intn(6)
			t1 := lo + int64(rng.Intn(int(hi-lo)+1)) - 2
			t2 := t1 + int64(rng.Intn(int(hi-lo)+2))
			want := idx.Query(s, k, t1, t2)
			for name, v := range map[string]*View{"view": view, "rebased view": rebased} {
				if got := v.Query(s, k, t1, t2); !itemsEqual(got, want) {
					t.Fatalf("trial %d n=%d total=%d k=%d [%d,%d]:\n%s %v\nstatic %v",
						trial, n, total, k, t1, t2, name, got, want)
				}
			}
		}
		// The pinned upper bound must bound every prefix record and be
		// attained by one (linear scorers admit a tight max).
		ub := view.UpperBoundAll(s)
		best := -1e300
		for i := 0; i < n; i++ {
			if v := s.Score(prefix.Attrs(i)); v > best {
				best = v
			}
		}
		if ub < best {
			t.Fatalf("trial %d: UpperBoundAll=%g below true max %g", trial, ub, best)
		}
	}
}

// TestForestSnapshotOldPrefix exercises snapshots taken at a length the
// forest has long grown past: merged trees straddling the prefix end must be
// left to the view's unindexed scan, not over-answer.
func TestForestSnapshotOldPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const total = 500
	ds := randDS(rng, total, 2, 0)
	opts := Options{LengthThreshold: 8}
	f := newForest(2, opts)
	for i := 0; i < total; i++ {
		if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := linearFor(rng, 2)
	for _, n := range []int{1, 7, 8, 9, 63, 64, 65, 200, total} {
		view := f.Snapshot(n)
		idx := Build(ds.Prefix(n), opts)
		lo, hi := ds.Span()
		for q := 0; q < 8; q++ {
			k := 1 + rng.Intn(5)
			t1 := lo + int64(rng.Intn(int(hi-lo)+1))
			t2 := t1 + int64(rng.Intn(int(hi-lo)+2))
			got := view.Query(s, k, t1, t2)
			want := idx.Query(s, k, t1, t2)
			if !itemsEqual(got, want) {
				t.Fatalf("n=%d k=%d [%d,%d]:\nview   %v\nstatic %v", n, k, t1, t2, got, want)
			}
		}
	}
}
