package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// TestLiveShardedLifecycle pins the seal/freeze mechanics: row-triggered
// seals cut the stream into the expected contiguous shards, the metrics add
// up, and queries straddling seal boundaries match a batch engine.
func TestLiveShardedLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, sealRows = 35, 10
	ds := diffDataset(rng, "clustered", n, 2)
	s := randScorer(rng, 2)
	lse, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: sealRows})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if lse.Len() != n {
		t.Fatalf("Len=%d want %d", lse.Len(), n)
	}
	if lse.Seals() != 3 || lse.SealedRows() != 30 || lse.TailLen() != 5 {
		t.Fatalf("seals=%d sealedRows=%d tail=%d, want 3/30/5",
			lse.Seals(), lse.SealedRows(), lse.TailLen())
	}
	if lse.NumShards() != 4 {
		t.Fatalf("NumShards=%d want 4 (3 sealed + tail)", lse.NumShards())
	}
	infos := lse.Shards()
	wantCuts := [][2]int{{0, 10}, {10, 20}, {20, 30}, {30, 35}}
	for i, in := range infos {
		if in.Lo != wantCuts[i][0] || in.Hi != wantCuts[i][1] {
			t.Fatalf("shard %d: [%d,%d) want [%d,%d)", i, in.Lo, in.Hi, wantCuts[i][0], wantCuts[i][1])
		}
	}
	// A forced seal freezes the tail; a second is a no-op on the empty tail.
	lse.Seal()
	lse.Seal()
	lse.WaitSealed() // land the background freeze builds before reading metrics
	if lse.Seals() != 4 || lse.TailLen() != 0 || lse.SealedRows() != n {
		t.Fatalf("after Seal: seals=%d tail=%d sealedRows=%d", lse.Seals(), lse.TailLen(), lse.SealedRows())
	}
	// Two-phase seal: once the background freezes land, every sealed shard
	// must serve the static index, not the retired tail's snapshot view.
	for i, sh := range lse.epoch().shards {
		if _, ok := sh.eng.Index().(*topk.Index); !ok {
			t.Fatalf("sealed shard %d still serving %T after WaitSealed", i, sh.eng.Index())
		}
	}
	batch := NewEngine(ds, testEngineOpts())
	lo, hi := ds.Span()
	for _, tau := range []int64{0, 5, hi - lo} {
		q := Query{K: 3, Tau: tau, Start: lo, End: hi, Scorer: s, WithDurations: true}
		want, err := batch.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lse.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("tau=%d:\n got %v\nwant %v", tau, got.Records, want.Records)
		}
	}
	// The freeze amortization is bounded: every row sealed once, and index
	// work stays O(log sealRows) + 1 per append.
	if lse.IndexedRows() < n || lse.Rebuilds() < lse.Seals() {
		t.Fatalf("IndexedRows=%d Rebuilds=%d implausible for n=%d seals=%d",
			lse.IndexedRows(), lse.Rebuilds(), n, lse.Seals())
	}
}

// TestLiveShardedFreezeBackpressure pins the overload fallback: when the
// bounded background-freeze budget is exhausted, a seal builds its static
// index synchronously — the shard serves a *topk.Index immediately instead
// of queueing another retired tail.
func TestLiveShardedFreezeBackpressure(t *testing.T) {
	lse, err := NewLiveShardedEngine(1, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lse.mu.Lock()
	lse.freezing = maxPendingFreezes // simulate saturated freeze workers
	lse.mu.Unlock()
	lse.Seal()
	g := lse.epoch()
	if len(g.shards) != 1 {
		t.Fatalf("shards=%d want 1", len(g.shards))
	}
	if _, ok := g.shards[0].eng.Index().(*topk.Index); !ok {
		t.Fatalf("backpressured seal did not build synchronously: serving %T", g.shards[0].eng.Index())
	}
	lse.mu.Lock()
	lse.freezing = 0
	lse.mu.Unlock()
	s := score.MustLinear(1)
	res, err := lse.DurableTopK(Query{K: 2, Tau: 4, Start: 1, End: 12, Scorer: s})
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(lse.Dataset(), s, 2, 4, 1, 12, LookBack)
	if !reflect.DeepEqual(res.IDs(), want) {
		t.Fatalf("got %v want %v", res.IDs(), want)
	}
}

// TestLiveShardedSealSpan pins the span-triggered rule: a tail seals once its
// arrivals span at least SealSpan ticks, regardless of row count.
func TestLiveShardedSealSpan(t *testing.T) {
	lse, err := NewLiveShardedEngine(1, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealSpan: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 1..9 stay in one tail (span 8 < 10); t=11 spans 10 → seal.
	for _, tt := range []int64{1, 3, 9, 11} {
		if _, _, err := lse.Append(tt, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if lse.Seals() != 1 || lse.TailLen() != 0 {
		t.Fatalf("seals=%d tail=%d, want 1 seal with empty tail", lse.Seals(), lse.TailLen())
	}
	if _, _, err := lse.Append(12, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if lse.Seals() != 1 || lse.TailLen() != 1 {
		t.Fatalf("after t=12: seals=%d tail=%d, want 1/1", lse.Seals(), lse.TailLen())
	}
}

// TestFarApartTimes pins the time-distance rules against int64 wraparound:
// retention keeps a shard whose age RetainSpan covers (math.MaxInt64 keeps
// everything, whatever the times), and a tail spanning more than SealSpan
// seals, however far apart its arrivals lie.
func TestFarApartTimes(t *testing.T) {
	s := score.MustLinear(1, 1)
	answer := func(base int64) []int {
		lse := compactLSE(t, 2, LiveShardOptions{SealRows: 4, RetainSpan: math.MaxInt64})
		times, rows := make([]int64, 40), make([][]float64, 40)
		for i := range times {
			times[i], rows[i] = base+int64(i), []float64{float64(i % 7), float64(i % 5)}
			if _, _, err := lse.Append(times[i], rows[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got := lse.RetiredRows(); got != 0 {
			t.Fatalf("times from %d: %d rows retired, want none", base, got)
		}
		q := Query{K: 2, Tau: 6, Start: times[0], End: times[39], Scorer: s, Algorithm: TBase}
		res, err := lse.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		want := BruteForce(data.MustNew(times, rows), s, q.K, q.Tau, q.Start, q.End, LookBack)
		if got := res.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("times from %d:\n got  %v\n want %v", base, got, want)
		}
		return want
	}
	if neg, pos := answer(-1000), answer(1); !reflect.DeepEqual(neg, pos) {
		t.Fatalf("shifting the times changed the answer: %v from -1000, %v from 1", neg, pos)
	}

	lse := compactLSE(t, 1, LiveShardOptions{SealSpan: 1 << 62})
	for _, tt := range []int64{math.MinInt64 + 1, math.MaxInt64 - 1} {
		if _, _, err := lse.Append(tt, []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if lse.Seals() != 1 || lse.TailLen() != 0 {
		t.Fatalf("seals=%d tail=%d after arrivals 2^64-3 ticks apart, want 1 seal with empty tail", lse.Seals(), lse.TailLen())
	}
}

// TestLiveShardedEmptyEdges pins the empty-result edge contract: an empty
// engine, a query interval the router prunes every shard for, and a query
// entirely inside a just-sealed (momentarily empty) tail must all answer
// empty — never panic — while invalid parameters still error.
func TestLiveShardedEmptyEdges(t *testing.T) {
	s := score.MustLinear(1, 1)
	lse, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Empty engine: valid queries answer empty, invalid ones error.
	res, err := lse.DurableTopK(Query{K: 1, Tau: 5, Start: 0, End: 10, Scorer: s})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("empty engine query: res=%v err=%v", res, err)
	}
	if _, err := lse.DurableTopK(Query{K: 0, Tau: 5, Scorer: s}); err == nil {
		t.Fatal("invalid k must fail even when empty")
	}
	if _, err := lse.Explain(Query{K: 1, Scorer: s}); err == nil {
		t.Fatal("explain on empty must fail")
	}
	if _, err := lse.MostDurable(1, s, LookBack, 3); err == nil {
		t.Fatal("most-durable on empty must fail")
	}
	if lse.Shards() != nil || lse.NumShards() != 0 {
		t.Fatalf("empty engine reports shards: %v", lse.Shards())
	}

	// Two bursts of arrivals separated by a wide gap, sealed in between: the
	// shard layout leaves whole time ranges owned by no shard's arrivals.
	for _, tt := range []int64{10, 11, 12, 13} { // seals at 4 rows
		if _, _, err := lse.Append(tt, []float64{float64(tt), 1}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tt := range []int64{100, 101} {
		if _, _, err := lse.Append(tt, []float64{float64(tt), 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Router prunes every shard: I sits in the arrival gap between shards,
	// with tau reaching far across it.
	res, err = lse.DurableTopK(Query{K: 2, Tau: 500, Start: 40, End: 90, Scorer: s})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("gap query: res=%v err=%v", res, err)
	}
	if res.Stats.ShardsPruned != lse.NumShards() {
		t.Fatalf("gap query pruned %d shards, want all %d", res.Stats.ShardsPruned, lse.NumShards())
	}

	// Just-sealed tail: freeze the 2-record tail, then query strictly after
	// the last sealed arrival — the time range only the (empty) tail could
	// ever own.
	lse.Seal()
	if lse.TailLen() != 0 {
		t.Fatalf("tail not empty after Seal: %d", lse.TailLen())
	}
	res, err = lse.DurableTopK(Query{K: 1, Tau: 5, Start: 150, End: 200, Scorer: s})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("post-seal tail-range query: res=%v err=%v", res, err)
	}
	// And with look-ahead + durations, the other window direction.
	res, err = lse.DurableTopK(Query{K: 1, Tau: 5, Start: 150, End: 200, Scorer: s,
		Anchor: LookAhead, WithDurations: true})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("post-seal look-ahead query: res=%v err=%v", res, err)
	}
}

// TestNoStaleTailBoundAfterSeal: a seal splits the tail into a sealed shard
// and a fresh tail, and appends then put far higher scores in the new tail. A
// score upper bound left over from before the seal (1) would prune the tail
// and wrongly keep record 7 durable: the record at t=8 has four score-100
// successors inside its look-ahead window. The durations of the whole answer,
// whose searches read the bounds, must match the oracle too.
func TestNoStaleTailBoundAfterSeal(t *testing.T) {
	s := score.MustLinear(1)
	lse, err := NewLiveShardedEngine(1, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: 1 << 30}) // seal only when forced
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lse.DurableTopK(Query{K: 2, Tau: 6, Start: 1, End: 8, Scorer: s,
		Anchor: LookAhead, WithDurations: true}); err != nil {
		t.Fatal(err)
	}
	lse.Seal()
	for i := 8; i < 12; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{100}); err != nil {
			t.Fatal(err)
		}
	}
	ds := lse.Dataset()
	q := Query{K: 2, Tau: 6, Start: ds.Time(7), End: ds.Time(7), Scorer: s, Anchor: LookAhead}
	got, err := lse.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 {
		t.Fatalf("post-seal query: got %v, want no durable record", got.IDs())
	}
	q.Start, q.End, q.WithDurations = ds.Time(0), ds.Time(ds.Len()-1), true
	got, err = lse.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, LookAhead); !reflect.DeepEqual(got.IDs(), want) {
		t.Fatalf("post-seal query: got %v want %v", got.IDs(), want)
	}
	for _, r := range got.Records {
		if d, full := BruteMaxDuration(ds, s, q.K, r.ID, LookAhead); r.MaxDuration != d || r.FullHistory != full {
			t.Fatalf("record %d: duration (%d, %v), want (%d, %v)", r.ID, r.MaxDuration, r.FullHistory, d, full)
		}
	}
}

// TestLiveShardedTailBoundFresh pins the tail side of the pruning contract:
// the mutable tail's score upper bound is re-derived per epoch, so a bound
// observed before an append can never suppress a higher-scoring record
// appended afterwards.
func TestLiveShardedTailBoundFresh(t *testing.T) {
	s := score.MustLinear(1)
	lse, err := NewLiveShardedEngine(1, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sealed shard of modest scores, then a low-score tail.
	for i := 0; i < 5; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{5}); err != nil {
			t.Fatal(err)
		}
	}
	// Query once so the epoch (and any bound) is materialized and memoized.
	ds := lse.Dataset()
	if _, err := lse.DurableTopK(Query{K: 1, Tau: 10, Start: ds.Time(0), End: ds.Time(4), Scorer: s}); err != nil {
		t.Fatal(err)
	}
	// Now a much higher record lands in the tail; the old record at t=5 must
	// immediately stop being 1-durable under a look-ahead window.
	if _, _, err := lse.Append(6, []float64{50}); err != nil {
		t.Fatal(err)
	}
	full := lse.Dataset()
	q := Query{K: 1, Tau: 3, Start: full.Time(4), End: full.Time(4), Scorer: s, Anchor: LookAhead}
	got, err := lse.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForce(full, s, 1, 3, q.Start, q.End, LookAhead)
	if !reflect.DeepEqual(got.IDs(), want) && !(len(got.IDs()) == 0 && len(want) == 0) {
		t.Fatalf("stale tail bound: got %v want %v", got.IDs(), want)
	}
	if len(want) != 0 {
		t.Fatalf("test premise broken: record 4 should be beaten, oracle %v", want)
	}
}

// TestLiveSnapshotStableAcrossAppends is the directed regression for the
// torn-prefix hazard: a live engine's query epoch taken at prefix n must keep
// answering exactly over those n records after the stream grows past it —
// including time-window probes that would reach later records through an
// unpinned forest block.
func TestLiveSnapshotStableAcrossAppends(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const n, total = 120, 700
	ds := diffDataset(rng, "dense", total, 2)
	s := randScorer(rng, 2)
	le, err := NewLiveEngine(2, testEngineOpts(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := le.epoch()
	if got := snap.ds.Len(); got != n {
		t.Fatalf("epoch length %d want %d", got, n)
	}
	// Grow far past the snapshot — through several chunk flushes and merges.
	for i := n; i < total; i++ {
		if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	prefix := ds.Prefix(n)
	batch := NewEngine(prefix, testEngineOpts())
	lo, hi := ds.Span() // spans far past the snapshot prefix
	for qi := 0; qi < 10; qi++ {
		q := Query{
			K: 1 + rng.Intn(4), Tau: int64(rng.Intn(int(hi - lo))),
			Start: lo, End: hi, Scorer: s,
			Anchor: []Anchor{LookBack, LookAhead}[qi%2],
		}
		want, err := batch.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := snap.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Records, want.Records) {
			t.Fatalf("snapshot leaked post-snapshot records (q %d):\n got %v\nwant %v",
				qi, res.Records, want.Records)
		}
	}
}

// TestLiveShardedConcurrent exercises the lifecycle under the race detector:
// one appender (with periodic forced seals), several concurrent queriers
// hitting queries, profiles and metadata, every answer internally consistent.
func TestLiveShardedConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	const n = 400
	ds := diffDataset(rng, "clustered", n, 2)
	s := score.MustLinear(0.5, 0.5)
	lse, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: 48})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := lse.Dataset()
				if snap.Len() == 0 {
					continue
				}
				lo, hi := snap.Span()
				res, err := lse.DurableTopK(Query{
					K: 1 + (i+w)%4, Tau: int64(i % 60), Start: lo, End: hi, Scorer: s,
					Anchor: []Anchor{LookBack, LookAhead}[i%2],
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				last := int64(math.MinInt64)
				for _, r := range res.Records {
					if r.Time <= last {
						t.Errorf("worker %d: results not time-ascending", w)
						return
					}
					last = r.Time
				}
				if i%7 == 0 {
					if _, err := lse.MostDurable(2, s, LookBack, 3); err != nil {
						t.Errorf("worker %d: most-durable: %v", w, err)
						return
					}
				}
				_ = lse.NumShards()
				_ = lse.Shards()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
		if i%90 == 89 {
			lse.Seal()
		}
	}
	close(stop)
	wg.Wait()
	lse.WaitSealed()
}

// TestLiveShardedValidation pins constructor and append validation.
func TestLiveShardedValidation(t *testing.T) {
	if _, err := NewLiveShardedEngine(0, Options{}, LiveOptions{}, LiveShardOptions{}); err == nil {
		t.Fatal("d=0 must fail")
	}
	if _, err := NewLiveShardedEngine(1, Options{}, LiveOptions{}, LiveShardOptions{SealRows: -1}); err == nil {
		t.Fatal("negative SealRows must fail")
	}
	lse, err := NewLiveShardedEngine(2, Options{}, LiveOptions{}, LiveShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if lse.so.SealRows != DefaultSealRows {
		t.Fatalf("default SealRows=%d want %d", lse.so.SealRows, DefaultSealRows)
	}
	if _, _, err := lse.Append(5, []float64{1}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, _, err := lse.Append(5, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := lse.Append(5, []float64{3, 4}); err == nil {
		t.Fatal("non-increasing time must fail")
	}
	if lse.Len() != 1 {
		t.Fatalf("failed appends must not commit: Len=%d want 1", lse.Len())
	}
}

// TestRestoreBaseNamesStreamPositions: an engine restored over a retention
// base names every record by its stream position — in answers (durations
// included), profiles, Len, RetiredRows, the lifecycle hooks and Rows — both
// while no shard has sealed (the epoch is the tail engine's own group) and
// after seals, and Rows refuses records below the base.
func TestRestoreBaseNamesStreamPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const base, n, sealRows = 1000, 40, 16
	ds := diffDataset(rng, "clustered", n, 2)
	s := randScorer(rng, 2)
	var sealed [][2]int
	lse, err := RestoreLiveShardedEngine(2, testEngineOpts(), LiveOptions{},
		LiveShardOptions{SealRows: sealRows, OnSeal: func(lo, hi int) { sealed = append(sealed, [2]int{lo, hi}) }}, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lse.Len() != base || lse.RetiredRows() != base {
		t.Fatalf("empty restore: Len %d, RetiredRows %d, want %d", lse.Len(), lse.RetiredRows(), base)
	}
	lo, hi := ds.Span()
	for _, m := range []int{sealRows - 1, n} { // before the first seal, then after two
		for lse.Len() < base+m {
			i := lse.Len() - base
			if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				t.Fatal(err)
			}
		}
		batch := NewEngine(ds.Slice(0, m), testEngineOpts())
		for _, anchor := range []Anchor{LookBack, LookAhead} {
			q := Query{K: 2, Tau: (hi - lo) / 4, Start: lo, End: hi, Scorer: s, Anchor: anchor, WithDurations: true}
			want, err := batch.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Records {
				want.Records[i].ID += base
			}
			got, err := lse.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("%d rows %v:\n got %v\nwant %v", m, anchor, got.Records, want.Records)
			}
			wantP, _ := batch.DurabilityProfile(2, s, anchor)
			for i := range wantP {
				wantP[i].ID += base
			}
			if gotP, _ := lse.DurabilityProfile(2, s, anchor); !reflect.DeepEqual(gotP, wantP) {
				t.Fatalf("%d rows %v: profile ids are not stream positions", m, anchor)
			}
		}
	}
	if want := [][2]int{{base, base + sealRows}, {base + sealRows, base + 2*sealRows}}; !reflect.DeepEqual(sealed, want) {
		t.Fatalf("OnSeal ranges %v, want %v", sealed, want)
	}
	if lse.Shards()[0].Lo != base {
		t.Fatalf("first shard starts at %d, want %d", lse.Shards()[0].Lo, base)
	}
	rows, err := lse.Rows(base+3, base+n)
	if err != nil || rows.Len() != n-3 || rows.Time(0) != ds.Time(3) {
		t.Fatalf("Rows(%d, %d) = %v, %v", base+3, base+n, rows, err)
	}
	for _, r := range [][2]int{{base - 1, base + 1}, {base, base + n + 1}, {base + 2, base + 1}} {
		if _, err := lse.Rows(r[0], r[1]); err == nil {
			t.Fatalf("Rows(%d, %d) succeeded outside the held records [%d, %d)", r[0], r[1], base, base+n)
		}
	}
}
