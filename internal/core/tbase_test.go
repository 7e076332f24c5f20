package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/expr"
	"repro/internal/score"
	"repro/internal/topk"
)

// seriesDataset has one attribute per tick, in the order given.
func seriesDataset(vals []float64) *data.Dataset {
	times := make([]int64, len(vals))
	rows := make([][]float64, len(vals))
	for i, v := range vals {
		times[i] = int64(i + 1)
		rows[i] = []float64{v}
	}
	return data.MustNew(times, rows)
}

// scalarOnly hides a scorer's bulk kernels: T-Base's stripes are then filled by
// the per-record fallback loop.
type scalarOnly struct{ score.Scorer }

// TestTBaseWindowCases pins T-Base's 2k-deep sliding buffer and its columnar
// sweep against the oracle on the window shapes a random differential trial
// reaches only by chance, and checks how many from-scratch recomputations each
// needed (maint < 0: any). shards > 0 runs the case on that many time shards,
// so the sweep runs over spanBlocks and, for look-ahead, over pooled mirrored
// columns.
func TestTBaseWindowCases(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const n = 600
	const long = 3*tbaseStripe + 64 // the sweep refills each stripe several times
	rising, falling, saw, noise := make([]float64, long), make([]float64, n), make([]float64, n), make([]float64, long)
	for i := range rising {
		rising[i] = float64(i)
		noise[i] = float64(rng.Intn(50))
	}
	for i := range falling {
		falling[i] = float64(n - i)
		saw[i] = float64(i%37) + float64(i%5)/8 // climbs, collapses, climbs: the buffer drains and refills
	}
	// Infinite scores order like any other. A NaN score ranks below every real
	// one, for the sweep (>= the k-th never passes a NaN row) and the oracle
	// alike; every window here holds k real-scored rows or fewer than k rows.
	// Row 30 lies outside the second interval queried but inside its first
	// windows, row 70 inside it. Only the sweep on an unsharded engine is held
	// to this: a NaN that reaches a range top-k probe's heap corrupts its
	// order, so the probing strategies (and T-Base's recomputations over
	// spanBlocks of several shards) are undefined under NaN scores.
	inf, nan := append([]float64(nil), noise[:n]...), append([]float64(nil), noise[:120]...)
	inf[40], inf[260], inf[41], inf[261], inf[500] = math.Inf(1), math.Inf(1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
	nan[30], nan[70] = math.NaN(), math.NaN()
	s := score.MustLinear(1)
	cases := []struct {
		name   string
		ds     *data.Dataset
		k      int
		tau    int64
		anchor Anchor
		maint  int
		scorer score.Scorer // nil: s
		shards int
	}{
		// Windows hold fewer than k rows: the buffer is the whole window, every
		// record is durable, and nothing is ever recomputed after the first fill.
		{"k beyond the window", seriesDataset(noise[:n]), 40, 25, LookBack, 1, nil, 0},
		{"k beyond the dataset", seriesDataset(noise[:n]), n + 5, 200, LookBack, 1, nil, 0},
		// Between k and 2k rows per window: still the whole window, never refilled.
		{"window between k and 2k", seriesDataset(noise[:n]), 20, 29, LookBack, 1, nil, 0},
		{"tau zero", seriesDataset(noise[:n]), 3, 0, LookBack, 1, nil, 0},
		{"all tied", constantDataset(n), 4, 50, LookBack, -1, nil, 0},
		{"all tied, look-ahead", constantDataset(n), 4, 50, LookAhead, -1, nil, 0},
		{"look-ahead", seriesDataset(noise[:n]), 5, 60, LookAhead, -1, nil, 0},
		// Every expiring record is the window's best and every entering one its
		// worst: the buffer only drains, k spare items per recomputation.
		{"rising: drains", seriesDataset(rising[:n]), 5, 100, LookBack, 1 + (n-1)/6, nil, 0},
		// Every entering record is the window's best: the buffer refills from
		// entering rows alone.
		{"falling: refills from entering rows", seriesDataset(falling), 5, 100, LookBack, 1, nil, 0},
		{"sawtooth", seriesDataset(saw), 6, 80, LookBack, -1, nil, 0},
		{"sawtooth, look-ahead", seriesDataset(saw), 6, 80, LookAhead, -1, nil, 0},

		// A window of tau+1 rows against the stripe: one row short of it, exactly
		// it, one row over; and far over, the two ends in different stripes.
		{"window one row short of a stripe", seriesDataset(noise), 5, tbaseStripe - 2, LookBack, -1, nil, 0},
		{"window exactly a stripe", seriesDataset(noise), 5, tbaseStripe - 1, LookBack, -1, nil, 0},
		{"window one row over a stripe", seriesDataset(noise), 5, tbaseStripe, LookBack, -1, nil, 0},
		{"window of two stripes and a half, look-ahead", seriesDataset(noise), 5, 5 * tbaseStripe / 2, LookAhead, -1, nil, 0},
		// k+1 divides the stripe: the buffer drains every 8 rows, so a
		// recomputation falls on every row at which the expiring side refills.
		{"rising: recomputes where a stripe ends", seriesDataset(rising), 7, 600, LookBack, 1 + (long-1)/8, nil, 0},
		// The window start is walked down to row 0 and stays there.
		{"tau spans the data", seriesDataset(noise[:n]), 5, n, LookBack, -1, nil, 0},
		{"tau saturates", seriesDataset(noise[:n]), 5, math.MaxInt64, LookBack, -1, nil, 0},
		{"tau saturates, look-ahead", seriesDataset(noise[:n]), 5, math.MaxInt64, LookAhead, -1, nil, 0},
		{"infinite scores", seriesDataset(inf), 3, 70, LookBack, -1, nil, 0},
		{"infinite scores, look-ahead", seriesDataset(inf), 3, 70, LookAhead, -1, nil, 0},
		{"NaN scores", seriesDataset(nan), 2, 15, LookBack, -1, nil, 0},
		{"NaN scores, look-ahead", seriesDataset(nan), 2, 15, LookAhead, -1, nil, 0},
		// The scalar loop fills the stripes on two queries the bulk kernel
		// answered above; then a compiled expression's block evaluator.
		{"no bulk kernel", seriesDataset(noise), 5, tbaseStripe, LookBack, -1, scalarOnly{s}, 0},
		{"no bulk kernel, look-ahead", seriesDataset(saw), 6, 80, LookAhead, -1, scalarOnly{s}, 0},
		{"expression", seriesDataset(noise), 5, 700, LookBack, -1, expr.MustCompile("2*x0 + log1p(x0)", expr.Options{Dims: 1}), 0},
		// 75-row shards under 200-tick windows: every window spans four shards.
		{"windows over four shards", seriesDataset(saw), 6, 200, LookBack, -1, nil, 8},
		{"windows over four shards, look-ahead", seriesDataset(noise[:n]), 5, 200, LookAhead, -1, nil, 8},
	}
	for _, c := range cases {
		sc := c.scorer
		if sc == nil {
			sc = s
		}
		var eng Querier = NewEngine(c.ds, Options{Index: topk.Options{LengthThreshold: 8}})
		if c.shards > 0 {
			eng = NewShardedEngine(c.ds, testEngineOpts(), testShardOpts(c.shards, ByCount))
		}
		lo, hi := c.ds.Span()
		for _, ivl := range [][2]int64{{lo, hi}, {lo + (hi-lo)/3, hi - (hi-lo)/4}} {
			res, err := eng.DurableTopK(Query{K: c.k, Tau: c.tau, Start: ivl[0], End: ivl[1], Scorer: sc, Algorithm: TBase, Anchor: c.anchor})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			want := BruteForce(c.ds, sc, c.k, c.tau, ivl[0], ivl[1], c.anchor)
			if got := res.IDs(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v: got %d records, oracle has %d\n got  %v\n want %v", c.name, ivl, len(got), len(want), got, want)
			}
			if ivl[0] == lo && c.maint >= 0 && res.Stats.MaintQueries != c.maint {
				t.Fatalf("%s: %d recomputations, want %d", c.name, res.Stats.MaintQueries, c.maint)
			}
		}
	}
}

// TestRunTBaseZeroAllocs: the answer, the window buffer and both score stripes
// live in the probe's arena, so a warmed sweep — stripe refills and
// recomputations included — allocates nothing.
func TestRunTBaseZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	ds := randDataset(rng, 4096, 2, false)
	eng := NewEngine(ds, Options{})
	lo, hi := ds.Span()
	q := Query{K: 10, Tau: (hi - lo) / 20, Start: lo, End: hi, Scorer: score.MustLinear(0.3, 0.7), Algorithm: TBase}
	pr := newProbe()
	defer pr.release()
	v := wholeSpan(eng, pr)
	var st Stats
	want := append([]int32(nil), runTBase(v, pr, q, &st)...)
	if len(want) == 0 || st.MaintQueries < 2 {
		t.Fatalf("%d answers, %d recomputations: not the sweep this test is about", len(want), st.MaintQueries)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res := runTBase(v, pr, q, &st); len(res) != len(want) {
			t.Fatalf("steady-state answer drifted: %d records, want %d", len(res), len(want))
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state T-Base evaluation allocates %.1f times, want 0", allocs)
	}
	if res := runTBase(v, pr, q, &st); !reflect.DeepEqual(res, want) {
		t.Fatalf("arena reuse corrupted the answer: got %v want %v", res, want)
	}
}

// TestTBaseRecomputesPerKAnswers: on a dense answer — k = 50, tau = 1 % of 20k
// rows, thousands of durable records — the 2k-deep buffer is recomputed at
// most once per k answers (a k-deep buffer recomputed once per answer).
func TestTBaseRecomputesPerKAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ds := randDataset(rng, 20_000, 2, true)
	eng := NewEngine(ds, Options{})
	lo, hi := ds.Span()
	const k = 50
	res, err := eng.DurableTopK(Query{K: k, Tau: (hi - lo) / 100, Start: lo, End: hi, Scorer: score.MustLinear(0.6, 0.4), Algorithm: TBase})
	if err != nil {
		t.Fatal(err)
	}
	answers := len(res.Records)
	if answers < 20*k {
		t.Fatalf("only %d answers: not the dense case this test is about", answers)
	}
	if got, limit := res.Stats.MaintQueries, 1+answers/k; got > limit {
		t.Fatalf("%d recomputations for %d answers, want at most %d", got, answers, limit)
	}
}
