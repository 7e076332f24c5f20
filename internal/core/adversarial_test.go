package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// antiDataset draws points from the positive-orthant annulus (the paper's
// ANTI distribution) — worst case for skyline-based structures.
func antiDataset(rng *rand.Rand, n int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(1 + rng.Intn(2))
		times[i] = t
		x := rng.Float64()
		y := 0.8 + 0.2*rng.Float64()
		rows[i] = []float64{x * y, (1 - x) * y}
	}
	return data.MustNew(times, rows)
}

// constantDataset has all-equal scores: every record ties with every other.
func constantDataset(n int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		times[i] = int64(i + 1)
		rows[i] = []float64{7}
	}
	return data.MustNew(times, rows)
}

// monotoneIncreasing scores strictly rise over time: only a suffix of each
// window can be durable.
func monotoneIncreasingDataset(n int) *data.Dataset {
	times := make([]int64, n)
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		times[i] = int64(i + 1)
		rows[i] = []float64{float64(i)}
	}
	return data.MustNew(times, rows)
}

func checkAllAlgorithms(t *testing.T, ds *data.Dataset, s score.Scorer, k int, tau int64) {
	t.Helper()
	eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 8}})
	lo, hi := ds.Span()
	want := BruteForce(ds, s, k, tau, lo, hi, LookBack)
	for _, alg := range Algorithms() {
		if alg == SBand && !score.IsMonotone(s) {
			continue
		}
		res, err := eng.DurableTopK(Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		got := res.IDs()
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v on adversarial data: got %d records want %d\n got %v\nwant %v",
				alg, len(got), len(want), got, want)
		}
	}
}

func TestAntiCorrelatedData(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 6; trial++ {
		ds := antiDataset(rng, 200+rng.Intn(200))
		w := []float64{rng.Float64(), rng.Float64()}
		checkAllAlgorithms(t, ds, score.MustLinear(w...), 1+rng.Intn(5), 5+rng.Int63n(60))
	}
}

func TestAllScoresEqual(t *testing.T) {
	ds := constantDataset(150)
	s := score.MustLinear(1)
	// With total ties, nobody has a strictly higher score: every record is
	// durable for every k and tau.
	checkAllAlgorithms(t, ds, s, 1, 50)
	eng := NewEngine(ds, Options{})
	res, err := eng.DurableTopK(Query{K: 1, Tau: 50, Start: 1, End: 150, Scorer: s, Algorithm: SHop})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 150 {
		t.Fatalf("all-ties: %d durable want 150", len(res.Records))
	}
}

func TestMonotoneIncreasingScores(t *testing.T) {
	ds := monotoneIncreasingDataset(200)
	s := score.MustLinear(1)
	// Strictly rising scores: every record is the maximum of its window, so
	// all are durable at k=1.
	checkAllAlgorithms(t, ds, s, 1, 30)
	// Decreasing preference (negative weight) reverses the ranking: only
	// records whose window reaches back to the dataset start stay top-1.
	neg := score.MustLinear(-1)
	checkAllAlgorithms(t, ds, neg, 1, 30)
	checkAllAlgorithms(t, ds, neg, 3, 30)
}

func TestSingleRecordDataset(t *testing.T) {
	ds := data.MustNew([]int64{5}, [][]float64{{1, 2}})
	checkAllAlgorithms(t, ds, score.MustLinear(1, 1), 1, 10)
	checkAllAlgorithms(t, ds, score.MustLinear(1, 1), 5, 0)
}

func TestHugeTauSaturates(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ds := randDataset(rng, 120, 2, false)
	s := randScorer(rng, 2)
	// Tau near the int64 limit must not overflow window arithmetic.
	checkAllAlgorithms(t, ds, s, 2, 1<<60)
}

func TestSparseTimeGaps(t *testing.T) {
	// Huge gaps between arrivals: windows often contain a single record and
	// sub-interval partitions are mostly empty.
	rng := rand.New(rand.NewSource(79))
	times := make([]int64, 80)
	rows := make([][]float64, 80)
	t0 := int64(0)
	for i := range times {
		t0 += 1 + rng.Int63n(1_000_000)
		times[i] = t0
		rows[i] = []float64{rng.Float64()}
	}
	ds := data.MustNew(times, rows)
	checkAllAlgorithms(t, ds, score.MustLinear(1), 2, 500)
	checkAllAlgorithms(t, ds, score.MustLinear(1), 2, 2_500_000)
}

// TestLargeAgreement cross-checks the algorithms against each other (with
// T-Hop as reference) at a size where the brute-force oracle is too slow.
func TestLargeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("large agreement test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(83))
	ds := randDataset(rng, 30_000, 3, false)
	eng := NewEngine(ds, Options{SkybandScanBudget: 2048})
	lo, hi := ds.Span()
	span := hi - lo
	for _, k := range []int{1, 10} {
		for _, tau := range []int64{span / 50, span / 5} {
			s := randScorer(rng, 3)
			q := Query{K: k, Tau: tau, Start: lo + span/4, End: hi, Scorer: s, Algorithm: THop}
			ref, err := eng.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, alg := range []Algorithm{TBase, SBase, SBand, SHop} {
				q.Algorithm = alg
				res, err := eng.DurableTopK(q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(res.IDs(), ref.IDs()) {
					t.Fatalf("k=%d tau=%d: %v disagrees with t-hop (%d vs %d records)",
						k, tau, alg, len(res.Records), len(ref.Records))
				}
			}
		}
	}
}

// TestNaNScoresTerminate holds every strategy to returning when some scores
// are NaN, as an expression such as log(x0 - 5) yields on every row with
// x0 < 5. A NaN-scored record fails its own durability check without being
// outranked, and it can sit among its window's items; a T-Hop that hopped to
// the newest item then never moved. A NaN also equals nothing, not even
// itself, so an S-Base that grouped equal-score runs by == never left one.
// Only termination is asserted: answers under NaN scores are still
// undefined (see Query).
func TestNaNScoresTerminate(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 8
	}
	s := score.MustLinear(1)
	algs := []Algorithm{TBase, THop, SBase, SBand, SHop, Auto}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		vals := make([]float64, 120+rng.Intn(201))
		for i := range vals {
			vals[i] = float64(rng.Intn(40))
			if rng.Intn(20) == 0 {
				vals[i] = math.NaN()
			}
		}
		ds := seriesDataset(vals)
		shapes := []Querier{
			NewEngine(ds, testEngineOpts()),
			NewShardedEngine(ds, testEngineOpts(), ShardOptions{Shards: 3}),
		}
		lo, hi := ds.Span()
		k, tau := 1+rng.Intn(4), int64(5+rng.Intn(60))
		for si, eng := range shapes {
			for _, anchor := range []Anchor{LookBack, LookAhead, General} {
				for _, alg := range algs {
					if anchor == General && (alg == TBase || alg == SBand) {
						continue // no mid-anchored form
					}
					q := Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Algorithm: alg, Anchor: anchor}
					if anchor == General {
						q.Lead = tau / 2
					}
					done := make(chan error, 1)
					go func() {
						_, err := eng.DurableTopK(q)
						done <- err
					}()
					select {
					case err := <-done:
						if err != nil {
							t.Fatalf("seed %d shape %d %v %v: %v", seed, si, anchor, alg, err)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("seed %d shape %d %v %v (k=%d tau=%d): query did not return", seed, si, anchor, alg, k, tau)
					}
				}
			}
		}
	}
}

// TestTimeExtremesMatchShifted places the same rows, 3 ticks apart, at and
// near either end of int64 and again from time 0: a durability verdict
// depends only on time differences, so every strategy under both anchors,
// and MostDurable, must name the same records in every placement, and so
// must the oracle. A window reaching past an int64 end is clamped there
// (satSub/satAdd); one clamped short of the end landed on the wrong side of
// its own record. Look-ahead mirrors time by ^t: a negation wrapped
// -MinInt64 onto itself, so rows from MinInt64 answered nothing. S-Hop
// splits a sub-interval around a record at t into [lo, t-1] and [t+1, hi];
// at MaxInt64 t+1 wrapped and the split requeried its whole range forever.
// Each query runs under a watchdog.
func TestTimeExtremesMatchShifted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	seeded := make([]float64, 30)
	for i := range seeded {
		seeded[i] = float64(rng.Intn(20))
	}
	s := score.MustLinear(1)
	const k = 2
	for _, vals := range [][]float64{seeded, {6, 2, 7, 8, 6, 4, 4, 11, 7, 6, 4, 14}} {
		n := int64(len(vals))
		placed := func(t0 int64) *data.Dataset {
			times := make([]int64, n)
			rows := make([][]float64, n)
			for i := range times {
				times[i], rows[i] = t0+3*int64(i), vals[i:i+1]
			}
			return data.MustNew(times, rows)
		}
		ref := placed(0)
		refEng := NewEngine(ref, testEngineOpts())
		rlo, rhi := ref.Span()
		for _, t0 := range []int64{math.MinInt64, math.MinInt64 + 10, math.MaxInt64 - 10 - 3*(n-1), math.MaxInt64 - 3*(n-1)} {
			t.Run(fmt.Sprintf("rows=%d/t0=%d", n, t0), func(t *testing.T) {
				ds := placed(t0)
				shapes := []Querier{
					NewEngine(ds, testEngineOpts()),
					NewShardedEngine(ds, testEngineOpts(), ShardOptions{Shards: 3}),
				}
				lo, hi := ds.Span()
				for _, anchor := range []Anchor{LookBack, LookAhead} {
					want, err := refEng.MostDurable(k, s, anchor, 0)
					if err != nil {
						t.Fatal(err)
					}
					for si, eng := range shapes {
						var got []DurabilityRecord
						returns(t, fmt.Sprintf("shape %d %v MostDurable", si, anchor), func() error {
							got, err = eng.MostDurable(k, s, anchor, 0)
							return err
						})
						for i := range got {
							got[i].Time -= t0
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("shape %d %v MostDurable: %v, want %v", si, anchor, got, want)
						}
					}
					for _, tau := range []int64{5, 1 << 40, math.MaxInt64} {
						want := BruteForce(ref, s, k, tau, rlo, rhi, anchor)
						if got := BruteForce(ds, s, k, tau, lo, hi, anchor); !reflect.DeepEqual(got, want) {
							t.Fatalf("tau %d %v: oracle %v, shifted oracle %v", tau, anchor, got, want)
						}
						for _, alg := range Algorithms() {
							q := Query{K: k, Tau: tau, Start: rlo, End: rhi, Scorer: s, Algorithm: alg, Anchor: anchor}
							r, err := refEng.DurableTopK(q)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(r.IDs(), want) {
								t.Fatalf("tau %d %v %v: shifted rows answered %v, oracle %v", tau, anchor, alg, r.IDs(), want)
							}
							q.Start, q.End = lo, hi
							for si, eng := range shapes {
								what := fmt.Sprintf("shape %d tau %d %v %v", si, tau, anchor, alg)
								returns(t, what, func() error {
									r, err = eng.DurableTopK(q)
									return err
								})
								if !reflect.DeepEqual(r.IDs(), want) {
									t.Fatalf("%s: %v, want %v", what, r.IDs(), want)
								}
							}
						}
					}
				}
			})
		}
	}
}

// returns runs f under a 5-second watchdog and fails t if f does not return
// or returns an error.
func returns(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: did not return", what)
	}
}
