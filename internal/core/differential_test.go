package core

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/data"
)

// Cross-strategy differential property harness: every evaluation strategy —
// the five single-engine algorithms and the sharded engine at several shard
// counts — must return bit-identical answers to the brute-force oracle on
// randomized dataset shapes and randomized queries.
//
// Each trial derives its own seed from a master seed and logs it on failure;
// rerun one trial with
//
//	DIFF_SEED=<seed> go test -run TestDifferentialAllStrategies ./internal/core

// diffShardCounts are the sharded-engine configurations under differential
// test (1 = degenerate single shard; 16 usually exceeds the shard-per-record
// density on small datasets, exercising cut clamping).
var diffShardCounts = []int{1, 2, 7, 16}

// diffDataset builds one of three adversarially shaped datasets:
//
//	clustered: tight bursts of arrivals (gap 1) separated by long gaps, so
//	  shard boundaries land inside and between bursts and tau spans whole
//	  bursts at once
//	adversarial: monotone score ramps up then down with heavy exact score
//	  ties from a tiny integer domain — worst case for tie-break handling
//	dense: consecutive timestamps (gap exactly 1 everywhere, the closest a
//	  strictly-increasing time domain comes to duplicate timestamps), so
//	  window and shard edges always collide with record arrivals
func diffDataset(rng *rand.Rand, flavor string, n, d int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	t := int64(rng.Intn(3))
	for i := 0; i < n; i++ {
		switch flavor {
		case "clustered":
			if rng.Intn(12) == 0 {
				t += int64(50 + rng.Intn(200)) // burst gap
			} else {
				t += 1
			}
		case "dense":
			t += 1
		default: // adversarial
			t += int64(1 + rng.Intn(3))
		}
		times[i] = t
		row := make([]float64, d)
		for j := range row {
			switch flavor {
			case "adversarial":
				// Ramp with plateaus of exact ties.
				ramp := i
				if i > n/2 {
					ramp = n - i
				}
				row[j] = float64(ramp/5) + float64(rng.Intn(2))
			default:
				if rng.Intn(3) == 0 {
					row[j] = float64(rng.Intn(5)) // frequent exact ties
				} else {
					row[j] = rng.Float64() * 100
				}
			}
		}
		rows[i] = row
	}
	return data.MustNew(times, rows)
}

// diffQuery draws one randomized query over ds, biased toward the regimes
// where strategies diverge: tiny and huge tau, narrow intervals (often
// narrower than one shard), boundary-pinned intervals.
func diffQuery(rng *rand.Rand, ds *data.Dataset) Query {
	lo, hi := ds.Span()
	span := hi - lo
	q := Query{K: 1 + rng.Intn(6)}
	switch rng.Intn(4) {
	case 0:
		q.Tau = int64(rng.Intn(3)) // degenerate windows
	case 1:
		q.Tau = span + int64(rng.Intn(10)) // window covers everything
	default:
		q.Tau = int64(rng.Intn(int(span) + 2))
	}
	switch rng.Intn(3) {
	case 0: // narrow interval, often narrower than a shard
		q.Start = lo + int64(rng.Intn(int(span)+1))
		q.End = q.Start + int64(rng.Intn(8))
		if q.End > hi {
			q.End = hi
		}
	default:
		q.Start = lo + int64(rng.Intn(int(span)+1))
		q.End = q.Start + int64(rng.Intn(int(hi-q.Start)+1))
	}
	switch rng.Intn(3) {
	case 0:
		q.Anchor = LookAhead
	case 1:
		q.Anchor = General
		if q.Tau > 0 {
			q.Lead = int64(rng.Intn(int(q.Tau) + 1))
		}
	default:
		q.Anchor = LookBack
	}
	return q
}

func runDifferentialTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	flavor := []string{"clustered", "adversarial", "dense"}[rng.Intn(3)]
	n := 40 + rng.Intn(260)
	d := 1 + rng.Intn(3)
	ds := diffDataset(rng, flavor, n, d)
	s := randScorer(rng, d)
	eng := NewEngine(ds, testEngineOpts())
	sharded := make([]*ShardedEngine, len(diffShardCounts))
	for i, count := range diffShardCounts {
		// Alternate the strategy so both get coverage.
		sharded[i] = NewShardedEngine(ds, testEngineOpts(), testShardOpts(count, ShardStrategy(rng.Intn(2))))
	}
	// One engine with enough shards for a window to cover several.
	wide := NewShardedEngine(ds, testEngineOpts(), ShardOptions{Shards: 6 + rng.Intn(6)})
	sharded = append(sharded, wide)

	fail := func(engine string, q Query, got, want []int) {
		t.Fatalf("seed %d (DIFF_SEED=%d to reproduce): flavor=%s n=%d d=%d engine=%s\n"+
			"query k=%d tau=%d lead=%d I=[%d,%d] anchor=%v\n got %v\nwant %v",
			seed, seed, flavor, n, d, engine, q.K, q.Tau, q.Lead, q.Start, q.End, q.Anchor, got, want)
	}

	// reachQuery pins the window reach exactly onto a shard boundary of a
	// random sharded engine (gap-1, gap, gap+1): the alignments where the
	// reach-based shard pruning would first get an off-by-one wrong.
	reachQuery := func() Query {
		se := sharded[rng.Intn(len(sharded))]
		infos := se.Shards()
		in := infos[rng.Intn(len(infos))]
		q := Query{K: 1 + rng.Intn(6)}
		gap := int64(1)
		if in.Lo > 0 {
			gap = in.Start - ds.Time(in.Lo-1)
		}
		q.Tau = gap + int64(rng.Intn(3)) - 1
		if q.Tau < 0 {
			q.Tau = 0
		}
		q.Start = in.Start
		q.End = q.Start + int64(rng.Intn(int(q.Tau)+2))
		if in.End < q.End {
			q.End = in.End
		}
		switch rng.Intn(3) {
		case 0:
			q.Anchor = LookAhead
		case 1:
			q.Anchor = General
			if q.Tau > 0 {
				q.Lead = int64(rng.Intn(int(q.Tau) + 1))
			}
		}
		return q
	}

	// spanQuery makes every window on the wide engine cover at least three
	// shards: an interval across three or more of them and a window of
	// two to three shard widths, looking back or ahead.
	spanQuery := func() Query {
		infos := wide.Shards()
		first := rng.Intn(len(infos) - 2)
		last := first + 2 + rng.Intn(len(infos)-first-2)
		width := infos[first+2].Start - infos[first].Start
		q := Query{K: 1 + rng.Intn(6), Tau: width + int64(rng.Intn(int(width/2)+1))}
		q.Start = infos[first].Start + int64(rng.Intn(3))
		q.End = infos[last].End - int64(rng.Intn(3))
		if q.End < q.Start {
			q.End = q.Start
		}
		if rng.Intn(2) == 0 {
			q.Anchor = LookAhead
		}
		return q
	}

	for qi := 0; qi < 9; qi++ {
		q := diffQuery(rng, ds)
		switch {
		case qi >= 7:
			q = spanQuery()
		case qi >= 5:
			q = reachQuery()
		}
		q.Scorer = s
		var want []int
		if q.Anchor == General {
			want = BruteForceAnchored(ds, s, q.K, q.Tau, q.Lead, q.Start, q.End)
		} else {
			want = BruteForce(ds, s, q.K, q.Tau, q.Start, q.End, q.Anchor)
		}
		for _, alg := range Algorithms() {
			sub := q
			sub.Algorithm = alg
			mid := q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau
			if mid && (alg == TBase || alg == SBand) {
				continue // rejected by contract, covered elsewhere
			}
			res, err := eng.DurableTopK(sub)
			if err != nil {
				t.Fatalf("seed %d: %v: %v", seed, alg, err)
			}
			if got := res.IDs(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
				fail(alg.String(), q, got, want)
			}
		}
		for _, se := range sharded {
			// Auto, then every strategy pinned: the span runs the strategy the
			// query names (S-Hop for S-Band).
			for _, alg := range append([]Algorithm{Auto}, Algorithms()...) {
				sub := q
				sub.Algorithm = alg
				mid := q.Anchor == General && q.Lead > 0 && q.Lead < q.Tau
				if mid && (alg == TBase || alg == SBand) {
					continue // rejected by contract, covered elsewhere
				}
				res, err := se.DurableTopK(sub)
				if err != nil {
					t.Fatalf("seed %d: shards=%d %v: %v", seed, se.NumShards(), alg, err)
				}
				if got := res.IDs(); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
					fail(fmt.Sprintf("sharded-%d/%v", se.NumShards(), alg), q, got, want)
				}
			}
		}
	}
}

// runLiveShardedDifferentialTrial is the acceptance harness of the
// live+sharded lifecycle: one dataset streamed through a LiveShardedEngine in
// random batch sizes under a random seal policy (row- or span-triggered,
// plus randomly forced seals so queries land right after epoch swaps), with
// queries interleaved at every batch boundary — each answer compared
// record-for-record (ID, time, score, durations) against a batch Engine
// built fresh over exactly the prefix appended so far, across all five
// strategies. Most trials also run background
// compaction, so queries land on epochs mid-merge and just after level
// swaps.
func runLiveShardedDifferentialTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	flavor := []string{"clustered", "adversarial", "dense"}[rng.Intn(3)]
	n := 40 + rng.Intn(260)
	d := 1 + rng.Intn(3)
	ds := diffDataset(rng, flavor, n, d)
	s := randScorer(rng, d)

	so := LiveShardOptions{
		// Background compaction on two trials out of three: merges race the
		// interleaved queries below, so answers are checked against epochs
		// before, during and after level swaps. (No RetainSpan here — the
		// batch engine holds the full prefix; retention equivalence has its
		// own suffix-differential in compact_test.go.)
		CompactFanout: []int{0, 2, 2 + rng.Intn(3)}[rng.Intn(3)],
	}
	if rng.Intn(2) == 0 {
		so.SealRows = 1 + rng.Intn(60)
	} else {
		so.SealSpan = 1 + int64(rng.Intn(int(ds.TimeSpan())+2))
	}
	lse, err := NewLiveShardedEngine(d, testEngineOpts(), LiveOptions{}, so)
	if err != nil {
		t.Fatal(err)
	}

	fail := func(alg string, prefix int, q Query, got, want *Result) {
		t.Fatalf("seed %d (LIVESHARD_SEED=%d to reproduce): flavor=%s n=%d d=%d prefix=%d shards=%d alg=%s\n"+
			"seal rows=%d span=%d fanout=%d compactions=%d | query k=%d tau=%d lead=%d I=[%d,%d] anchor=%v durations=%v\n got %v\nwant %v",
			seed, seed, flavor, n, d, prefix, lse.NumShards(), alg,
			so.SealRows, so.SealSpan, so.CompactFanout, lse.Compactions(), q.K, q.Tau, q.Lead, q.Start, q.End,
			q.Anchor, q.WithDurations, got.Records, want.Records)
	}

	appended := 0
	for appended < n {
		batch := 1 + rng.Intn(24)
		for j := 0; j < batch && appended < n; j++ {
			if _, _, err := lse.Append(ds.Time(appended), ds.Attrs(appended)); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, appended, err)
			}
			appended++
		}
		if rng.Intn(4) == 0 {
			// Forced seal: the next queries run against a just-swapped epoch
			// with a momentarily empty tail.
			lse.Seal()
		}
		prefix := ds.Prefix(appended)
		batchEng := NewEngine(prefix, testEngineOpts())
		for qi := 0; qi < 3; qi++ {
			q := diffQuery(rng, prefix)
			if qi == 2 {
				// The whole prefix under a window of a third of it: windows
				// cover several sealed shards and the live tail, both directions.
				lo, hi := prefix.Span()
				q = Query{K: 1 + rng.Intn(6), Tau: (hi - lo) / 3, Start: lo, End: hi, Anchor: Anchor(rng.Intn(2))}
			}
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
				got, err := lse.DurableTopK(sub)
				if err != nil {
					t.Fatalf("seed %d: live-sharded %v: %v", seed, alg, err)
				}
				if !reflect.DeepEqual(got.Records, want.Records) {
					fail(alg.String(), appended, sub, got, want)
				}
			}
		}
	}
	if lse.Len() != n {
		t.Fatalf("live-sharded Len=%d want %d", lse.Len(), n)
	}
	if lse.SealedRows()+lse.TailLen() != n {
		t.Fatalf("sealed %d + tail %d records, want %d", lse.SealedRows(), lse.TailLen(), n)
	}
}

func TestLiveShardedDifferential(t *testing.T) {
	if env := os.Getenv("LIVESHARD_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad LIVESHARD_SEED %q: %v", env, err)
		}
		runLiveShardedDifferentialTrial(t, seed)
		return
	}
	master := rand.New(rand.NewSource(20260729))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		runLiveShardedDifferentialTrial(t, master.Int63())
	}
}

func TestDifferentialAllStrategies(t *testing.T) {
	if env := os.Getenv("DIFF_SEED"); env != "" {
		seed, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			t.Fatalf("bad DIFF_SEED %q: %v", env, err)
		}
		runDifferentialTrial(t, seed)
		return
	}
	master := rand.New(rand.NewSource(20260727))
	trials := 20
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		runDifferentialTrial(t, master.Int63())
	}
}
