package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

// compactLSE builds a live+sharded engine with compaction enabled and fails
// the test on construction errors.
func compactLSE(t *testing.T, d int, so LiveShardOptions) *LiveShardedEngine {
	t.Helper()
	lse, err := NewLiveShardedEngine(d, testEngineOpts(), LiveOptions{}, so)
	if err != nil {
		t.Fatal(err)
	}
	return lse
}

// TestCompactionBoundsShardCount is the headline invariant of the LSM
// lifecycle: on an unbounded append stream the live shard count stays
// O(CompactFanout · log n) instead of growing linearly with the seal count.
func TestCompactionBoundsShardCount(t *testing.T) {
	const n, sealRows = 4096, 8
	lse := compactLSE(t, 1, LiveShardOptions{SealRows: sealRows, CompactFanout: 2})
	for i := 0; i < n; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{float64(i % 97)}); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	lse.WaitCompacted()

	seals := n / sealRows // 512 level-0 shards entered the lifecycle
	if lse.Seals() != seals {
		t.Fatalf("Seals = %d, want %d", lse.Seals(), seals)
	}
	// Binary-counter layout: at most a handful of shards per level across
	// log2(seals) levels. Without compaction this would be 512 shards.
	bound := 2 + 2*int(math.Log2(float64(seals)))
	if got := lse.NumShards(); got > bound {
		t.Fatalf("NumShards = %d after %d seals, want O(log n) <= %d", got, seals, bound)
	}
	if lse.Compactions() == 0 {
		t.Fatal("no compactions ran")
	}
	if lse.MaxLevel() < 3 {
		t.Fatalf("MaxLevel = %d, want >= 3 after %d seals at fanout 2", lse.MaxLevel(), seals)
	}
	if lse.Len() != n {
		t.Fatalf("Len = %d, want %d (compaction must not drop rows)", lse.Len(), n)
	}
	// Shards still tile [0, sealed) ascending and carry their levels.
	infos := lse.Shards()
	prev := 0
	maxLevel := 0
	for _, in := range infos {
		if in.Lo != prev {
			t.Fatalf("shard layout has a gap: shard starts at %d, want %d (%+v)", in.Lo, prev, infos)
		}
		prev = in.Hi
		if in.Level > maxLevel {
			maxLevel = in.Level
		}
	}
	if prev != n {
		t.Fatalf("shards tile [0,%d), want [0,%d)", prev, n)
	}
	if maxLevel != lse.MaxLevel() {
		t.Fatalf("ShardInfo max level %d != MaxLevel() %d", maxLevel, lse.MaxLevel())
	}
}

// TestCompactionBitIdentity drives a stream through seal+compaction cycles
// and, at epochs right after merges land, requires every strategy to answer
// bit-identically to a batch engine over the same prefix.
func TestCompactionBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for _, fanout := range []int{2, 4} {
		for _, flavor := range []string{"clustered", "dense"} {
			t.Run(fmt.Sprintf("fanout=%d/%s", fanout, flavor), func(t *testing.T) {
				const n, d = 320, 2
				ds := diffDataset(rng, flavor, n, d)
				s := randScorer(rng, d)
				lse := compactLSE(t, d, LiveShardOptions{SealRows: 8, CompactFanout: fanout})
				for i := 0; i < n; i++ {
					if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
						t.Fatal(err)
					}
					if (i+1)%40 != 0 && i != n-1 {
						continue
					}
					// Quiesce so the queries run against a fully compacted
					// epoch — deterministic merge coverage, unlike the racy
					// mid-flight epochs the stress test exercises.
					lse.WaitSealed()
					lse.WaitCompacted()
					prefix := ds.Prefix(i + 1)
					batch := NewEngine(prefix, testEngineOpts())
					for qi := 0; qi < 2; qi++ {
						q := diffQuery(rng, prefix)
						q.Scorer = s
						for _, alg := range Algorithms() {
							sub := q
							sub.Algorithm = alg
							if q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau && (alg == TBase || alg == SBand) {
								continue
							}
							want, err := batch.DurableTopK(sub)
							if err != nil {
								t.Fatalf("batch %v: %v", alg, err)
							}
							got, err := lse.DurableTopK(sub)
							if err != nil {
								t.Fatalf("compacted %v: %v", alg, err)
							}
							if !reflect.DeepEqual(got.Records, want.Records) {
								t.Fatalf("prefix=%d compactions=%d alg=%v q=%+v:\n got %v\nwant %v",
									i+1, lse.Compactions(), alg, sub, got.Records, want.Records)
							}
						}
					}
				}
				if lse.Compactions() == 0 {
					t.Fatal("schedule never compacted; the test proved nothing")
				}
			})
		}
	}
}

// TestRetainSpanRetires: with a retention span, ancient shards are retired
// from the front, metrics expose the retired row count, and every query
// over the retained region answers exactly like a batch engine over the
// retained suffix (IDs offset by the retired prefix).
func TestRetainSpanRetires(t *testing.T) {
	const n, sealRows, retain = 240, 10, 60
	lse := compactLSE(t, 1, LiveShardOptions{SealRows: sealRows, RetainSpan: retain})
	times := make([]int64, n)
	vals := make([][]float64, n)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		times[i] = int64(i + 1) // gap 1: retention cutoff = latest - retain
		vals[i] = []float64{float64(rng.Intn(50))}
		if _, _, err := lse.Append(times[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	lse.WaitCompacted()

	lo := lse.RetiredRows()
	if lo == 0 {
		t.Fatal("nothing retired despite RetainSpan << stream span")
	}
	if lo%sealRows != 0 {
		t.Fatalf("RetiredRows = %d, want a whole-shard multiple of %d", lo, sealRows)
	}
	// Only whole shards whose entire range is older than the cutoff go: the
	// retained suffix always covers [latest-retain, latest].
	if times[lo-1] >= times[n-1]-retain {
		t.Fatalf("retired row %d at t=%d is inside the retention span [%d,%d]",
			lo-1, times[lo-1], times[n-1]-retain, times[n-1])
	}
	if lse.Len() != n {
		t.Fatalf("Len = %d, want %d (retirement is logical; rows stay addressable)", lse.Len(), n)
	}
	// Differential over the retained region: batch engine over the suffix.
	suffix, err := data.New(times[lo:n:n], vals[lo:n])
	if err != nil {
		t.Fatal(err)
	}
	batch := NewEngine(suffix, testEngineOpts())
	s := score.MustLinear(1)
	for qi := 0; qi < 8; qi++ {
		q := diffQuery(rng, suffix)
		q.Scorer = s
		for _, alg := range Algorithms() {
			sub := q
			sub.Algorithm = alg
			if q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau && (alg == TBase || alg == SBand) {
				continue
			}
			want, err := batch.DurableTopK(sub)
			if err != nil {
				t.Fatalf("batch %v: %v", alg, err)
			}
			got, err := lse.DurableTopK(sub)
			if err != nil {
				t.Fatalf("retained %v: %v", alg, err)
			}
			if len(got.Records) != len(want.Records) {
				t.Fatalf("alg=%v q=%+v: %d records, want %d\n got %v\nwant %v",
					alg, sub, len(got.Records), len(want.Records), got.Records, want.Records)
			}
			for i := range got.Records {
				g, w := got.Records[i], want.Records[i]
				w.ID += lo // suffix-relative -> stream-global
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("alg=%v q=%+v record %d: got %+v want %+v", alg, sub, i, g, w)
				}
			}
		}
	}

	// The durability profile covers exactly the retained rows, IDs global.
	prof, err := lse.DurabilityProfile(3, s, LookBack)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != n-lo {
		t.Fatalf("profile over %d rows, want %d retained", len(prof), n-lo)
	}
	for i, r := range prof {
		if r.ID != lo+i {
			t.Fatalf("profile[%d].ID = %d, want global row %d", i, r.ID, lo+i)
		}
	}
}

// TestRetireEverythingThenResume: a long quiet gap can retire every sealed
// shard; the engine must keep answering (empty or tail-only epochs) and
// accept further appends.
func TestRetireEverythingThenResume(t *testing.T) {
	lse := compactLSE(t, 1, LiveShardOptions{SealRows: 4, RetainSpan: 10})
	for i := 0; i < 8; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	// A record far in the future retires both sealed shards on its seal.
	for i := 0; i < 4; i++ {
		if _, _, err := lse.Append(int64(1000+i), []float64{2}); err != nil {
			t.Fatal(err)
		}
	}
	lse.WaitSealed()
	if lse.RetiredRows() != 8 {
		t.Fatalf("RetiredRows = %d, want 8", lse.RetiredRows())
	}
	s := score.MustLinear(1)
	res, err := lse.DurableTopK(Query{K: 2, Tau: 1, Start: 1000, End: 1003, Scorer: s, Algorithm: SHop})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no answers over the retained suffix")
	}
	for _, r := range res.Records {
		if r.ID < 8 {
			t.Fatalf("answer references retired row %d", r.ID)
		}
	}
	if _, _, err := lse.Append(2000, []float64{3}); err != nil {
		t.Fatalf("append after total retirement: %v", err)
	}
}

// TestCompactionRaceStress hammers the engine with concurrent appends and
// queries while compaction and retention continuously reshape the sealed
// set. Run under -race in CI; correctness of the answers is the differential
// harness's job — here every query must simply succeed against some epoch.
func TestCompactionRaceStress(t *testing.T) {
	// Past RetainSpan + 2048 arrivals so that retention fires however fast
	// compaction runs: when merges keep up the front shard is [0, 2048), which
	// only falls behind the cutoff after time 4048 (with n = 3000 the run
	// retired something only when compaction lagged, 3–6 of 20 runs did not).
	const n = 4200
	lse := compactLSE(t, 1, LiveShardOptions{
		SealRows: 16, CompactFanout: 2, RetainSpan: 2000,
	})
	s := score.MustLinear(1)
	// Seed rows so queriers never observe an empty engine.
	for i := 0; i < 32; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for !done.Load() {
				latest := int64(lse.Len()) // times are 1..Len, dense
				start := latest - int64(rng.Intn(64))
				if start < 1 {
					start = 1
				}
				q := Query{
					K: 1 + rng.Intn(4), Tau: int64(rng.Intn(40)),
					Start: start, End: latest, Scorer: s,
					Algorithm: Algorithms()[rng.Intn(len(Algorithms()))],
				}
				if rng.Intn(2) == 0 {
					q.Anchor = LookAhead
				}
				if _, err := lse.DurableTopK(q); err != nil {
					errs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for i := 32; i < n; i++ {
		if _, _, err := lse.Append(int64(i+1), []float64{float64(i % 101)}); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	lse.WaitSealed()
	lse.WaitCompacted()
	if lse.Compactions() == 0 {
		t.Fatal("stress run never compacted")
	}
	if lse.RetiredRows() == 0 {
		t.Fatal("stress run never retired")
	}
}
