package core

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/monitor"
	"repro/internal/score"
)

// runLiveDifferentialTrial is the acceptance harness of the live engine: one
// dataset streamed through a LiveEngine in random batch sizes, with queries
// interleaved at every batch boundary, each answer compared record-for-record
// (ID, time, score, and sometimes durations) against a batch Engine built
// fresh over exactly the prefix appended so far — across all five strategies.
func runLiveDifferentialTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	flavor := []string{"clustered", "adversarial", "dense"}[rng.Intn(3)]
	n := 40 + rng.Intn(260)
	d := 1 + rng.Intn(3)
	ds := diffDataset(rng, flavor, n, d)
	s := randScorer(rng, d)

	le, err := NewLiveEngine(d, testEngineOpts(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	fail := func(alg string, prefix int, q Query, got, want *Result) {
		t.Fatalf("seed %d (LIVE_SEED=%d to reproduce): flavor=%s n=%d d=%d prefix=%d alg=%s\n"+
			"query k=%d tau=%d lead=%d I=[%d,%d] anchor=%v durations=%v\n got %v\nwant %v",
			seed, seed, flavor, n, d, prefix, alg, q.K, q.Tau, q.Lead, q.Start, q.End,
			q.Anchor, q.WithDurations, got.Records, want.Records)
	}

	appended := 0
	for appended < n {
		batch := 1 + rng.Intn(24)
		for j := 0; j < batch && appended < n; j++ {
			if _, _, err := le.Append(ds.Time(appended), ds.Attrs(appended)); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, appended, err)
			}
			appended++
		}
		// The reference: a batch engine rebuilt from scratch at this exact
		// query point.
		prefix := ds.Prefix(appended)
		batchEng := NewEngine(prefix, testEngineOpts())
		for qi := 0; qi < 2; qi++ {
			q := diffQuery(rng, prefix)
			q.Scorer = s
			q.WithDurations = rng.Intn(3) == 0 && q.Anchor != General
			for _, alg := range Algorithms() {
				sub := q
				sub.Algorithm = alg
				mid := q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau
				if mid && (alg == TBase || alg == SBand) {
					continue // rejected by contract, covered elsewhere
				}
				if mid && q.WithDurations {
					continue
				}
				want, err := batchEng.DurableTopK(sub)
				if err != nil {
					t.Fatalf("seed %d: batch %v: %v", seed, alg, err)
				}
				got, err := le.DurableTopK(sub)
				if err != nil {
					t.Fatalf("seed %d: live %v: %v", seed, alg, err)
				}
				if !reflect.DeepEqual(got.Records, want.Records) {
					fail(alg.String(), appended, sub, got, want)
				}
			}
		}
	}
	if le.Len() != n {
		t.Fatalf("live Len=%d want %d", le.Len(), n)
	}
}

func TestLiveEngineDifferential(t *testing.T) {
	if env := os.Getenv("LIVE_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad LIVE_SEED %q: %v", env, err)
		}
		runLiveDifferentialTrial(t, seed)
		return
	}
	master := rand.New(rand.NewSource(20260728))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		runLiveDifferentialTrial(t, master.Int63())
	}
}

// TestLiveEngineEmptyAndErrors pins the edge contract: queries on an empty
// live engine answer empty (not panic), invalid appends leave it unchanged,
// and profile operations report the empty state as an error.
func TestLiveEngineEmptyAndErrors(t *testing.T) {
	le, err := NewLiveEngine(2, Options{}, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := score.MustLinear(1, 1)
	res, err := le.DurableTopK(Query{K: 1, Tau: 5, Start: 0, End: 10, Scorer: s})
	if err != nil || len(res.Records) != 0 {
		t.Fatalf("empty live query: res=%v err=%v", res, err)
	}
	if _, err := le.DurableTopK(Query{K: 0, Tau: 5, Scorer: s}); err == nil {
		t.Fatal("invalid k must fail even when empty")
	}
	if _, err := le.Explain(Query{K: 1, Scorer: s}); err == nil {
		t.Fatal("explain on empty must fail")
	}
	if _, err := le.MostDurable(1, s, LookBack, 3); err == nil {
		t.Fatal("most-durable on empty must fail")
	}
	if _, _, err := le.Append(5, []float64{1}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, _, err := le.Append(5, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := le.Append(5, []float64{3, 4}); err == nil {
		t.Fatal("non-increasing time must fail")
	}
	if _, _, err := le.Append(4, []float64{3, 4}); err == nil {
		t.Fatal("decreasing time must fail")
	}
	if le.Len() != 1 {
		t.Fatalf("failed appends must not commit: Len=%d want 1", le.Len())
	}
	if _, err := NewLiveEngine(0, Options{}, LiveOptions{}); err == nil {
		t.Fatal("d=0 must fail")
	}
}

// TestLiveEngineConcurrentQueries exercises the RW-locked contract under the
// race detector: one appender, several concurrent queriers, every answer
// internally consistent (IDs within the then-current prefix, ascending time).
func TestLiveEngineConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const n = 400
	ds := diffDataset(rng, "clustered", n, 2)
	s := score.MustLinear(0.5, 0.5)
	le, err := NewLiveEngine(2, testEngineOpts(), LiveOptions{})
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
				snap := le.Dataset()
				if snap.Len() == 0 {
					continue
				}
				lo, hi := snap.Span()
				res, err := le.DurableTopK(Query{
					K: 1 + (i+w)%4, Tau: int64(i % 50), Start: lo, End: hi, Scorer: s,
				})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				last := int64(-1 << 62)
				for _, r := range res.Records {
					if r.Time <= last {
						t.Errorf("worker %d: results not time-ascending", w)
						return
					}
					last = r.Time
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLiveDatasetSnapshotStable pins the storage contract behind the whole
// subsystem: a snapshot taken at prefix n observes exactly those records
// forever, across tail growth and the reallocation it causes.
func TestLiveDatasetSnapshotStable(t *testing.T) {
	le, err := NewLiveEngine(1, Options{}, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := le.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := le.Dataset()
	// Force many growth steps past the first chunk boundary.
	for i := 10; i < 2000; i++ {
		if _, _, err := le.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot grew: Len=%d want 10", snap.Len())
	}
	for i := 0; i < 10; i++ {
		if snap.Time(i) != int64(i+1) || snap.Attrs(i)[0] != float64(i) {
			t.Fatalf("snapshot record %d changed: t=%d attrs=%v", i, snap.Time(i), snap.Attrs(i))
		}
	}
}

func BenchmarkLiveAppend(b *testing.B) {
	le, err := NewLiveEngine(2, Options{}, LiveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := le.Append(int64(i+1), []float64{rng.Float64(), rng.Float64()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveSteadyQuery measures the steady-state live query path: the
// forest-backed engine answering durable top-k with no appends in between
// (the memoized snapshot engine and pooled probe scratch stay warm).
func BenchmarkLiveSteadyQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const n = 20000
	le, err := NewLiveEngine(2, Options{}, LiveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	tt := int64(0)
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(3))
		if _, _, err := le.Append(tt, []float64{rng.Float64() * 100, rng.Float64() * 100}); err != nil {
			b.Fatal(err)
		}
	}
	s := score.MustLinear(0.4, 0.6)
	q := Query{K: 10, Tau: tt / 10, Start: tt / 4, End: 3 * tt / 4, Scorer: s, Algorithm: SHop}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := le.DurableTopK(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLiveLookAheadBuildsNothing: look-ahead reads the indexes that exist —
// a LiveEngine's forest, a LiveShardedEngine's tail forest and its sealed and
// compacted shards — mirrored, so a look-ahead query after every append, on
// either engine, across seals and a compaction, builds no index beyond the
// forest's own chunk trees (which NewEngine does not build), one freeze per
// seal and one build per compaction; and every answer is the oracle's over
// the committed prefix. The engines run one after the other, so each one's
// builds are the counter's delta over its own run.
func TestLiveLookAheadBuildsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	s := score.MustLinear(0.4, 0.6)
	const n = 260
	times, rows := make([]int64, 0, n), make([][]float64, 0, n)
	queries := make([]Query, 0, n)
	tick := int64(0)
	algs := []Algorithm{Auto, TBase, THop, SBase, SHop}
	for i := 0; i < n; i++ {
		tick += 1 + int64(rng.Intn(4))
		row := []float64{float64(rng.Intn(5)), float64(rng.Intn(4))} // ties: the mirrored tie order decides
		times, rows = append(times, tick), append(rows, row)
		start := times[rng.Intn(len(times))]
		queries = append(queries, Query{K: 1 + rng.Intn(3), Tau: 20 + int64(rng.Intn(60)), Start: start, End: tick, Scorer: s, Anchor: LookAhead, Algorithm: algs[i%len(algs)]})
	}
	// drive appends every row to eng, asks the look-ahead query after each,
	// and returns how many indexes NewEngine built meanwhile.
	drive := func(name string, eng interface {
		Querier
		Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error)
	}, settle func()) int64 {
		built := indexBuilds.Load()
		for i, q := range queries {
			if _, _, err := eng.Append(times[i], rows[i]); err != nil {
				t.Fatal(err)
			}
			want := BruteForce(data.MustNew(times[:i+1], rows[:i+1]), s, q.K, q.Tau, q.Start, q.End, LookAhead)
			res, err := eng.DurableTopK(q)
			if err != nil {
				t.Fatalf("%s after %d appends: %v", name, i+1, err)
			}
			if got := res.IDs(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %d appends, %v k=%d tau=%d from %d:\n got  %v\n want %v", name, i+1, q.Algorithm, q.K, q.Tau, q.Start, got, want)
			}
		}
		settle()
		return indexBuilds.Load() - built
	}
	le, err := NewLiveEngine(2, testEngineOpts(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b := drive("live", le, func() {}); b != 0 {
		t.Fatalf("the live engine built %d indexes besides its forest's chunk trees, want 0", b)
	}
	lse, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{}, LiveShardOptions{SealRows: 50, CompactFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := drive("live sharded", lse, func() { lse.WaitSealed(); lse.WaitCompacted() })
	if lse.Seals() < 2 || lse.Compactions() < 1 {
		t.Fatalf("%d seals and %d compactions: not the lifecycle this test is about", lse.Seals(), lse.Compactions())
	}
	if want := int64(lse.Seals() + lse.Compactions()); b != want {
		t.Fatalf("the live sharded engine built %d indexes, want %d (one per seal and per compaction)", b, want)
	}
}
