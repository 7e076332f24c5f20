package durable_test

import (
	"math/rand"
	"reflect"
	"testing"

	durable "repro"
)

func buildDataset(t testing.TB, n int) *durable.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	times := make([]int64, n)
	attrs := make([][]float64, n)
	tt := int64(0)
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(3))
		times[i] = tt
		attrs[i] = []float64{rng.Float64() * 10, float64(rng.Intn(5))}
	}
	ds, err := durable.NewDataset(times, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// openEngine opens a batch engine over ds, failing the test on error.
func openEngine(t testing.TB, ds *durable.Dataset, options ...durable.OpenOption) *durable.Engine {
	t.Helper()
	q, err := durable.Open(append([]durable.OpenOption{durable.FromDataset(ds)}, options...)...)
	if err != nil {
		t.Fatal(err)
	}
	return q.(*durable.Engine)
}

// openSharded opens a time-sharded engine over ds.
func openSharded(t testing.TB, ds *durable.Dataset, shards durable.ShardOptions) *durable.ShardedEngine {
	t.Helper()
	q, err := durable.Open(durable.FromDataset(ds), durable.WithSharding(shards))
	if err != nil {
		t.Fatal(err)
	}
	return q.(*durable.ShardedEngine)
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	ds := buildDataset(t, 500)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	q := durable.Query{
		K:             2,
		Tau:           40,
		Start:         lo,
		End:           hi,
		Scorer:        durable.MustLinear(1, 0.5),
		WithDurations: true,
	}
	res, err := eng.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("expected durable records")
	}
	want := durable.BruteForce(ds, q.Scorer, q.K, q.Tau, q.Start, q.End, durable.LookBack)
	if !reflect.DeepEqual(res.IDs(), want) {
		t.Fatalf("public API answer %v want %v", res.IDs(), want)
	}
	for _, r := range res.Records {
		if r.MaxDuration < 0 {
			t.Fatal("WithDurations must fill MaxDuration")
		}
	}
}

func TestPublicAPIAlgorithmsAgree(t *testing.T) {
	ds := buildDataset(t, 800)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	scorer, err := durable.Log1pCombo([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var base []int
	for i, alg := range durable.Algorithms() {
		res, err := eng.DurableTopK(durable.Query{
			K: 3, Tau: 60, Start: lo, End: hi, Scorer: scorer, Algorithm: alg,
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if i == 0 {
			base = res.IDs()
			continue
		}
		if !reflect.DeepEqual(res.IDs(), base) {
			t.Fatalf("%v disagrees: %v vs %v", alg, res.IDs(), base)
		}
	}
}

func TestPublicAPIBuilder(t *testing.T) {
	b := durable.NewBuilder(1, 16)
	for i := 0; i < 16; i++ {
		if err := b.Append(int64(i+1), []float64{float64(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := openEngine(t, ds)
	scorer, err := durable.NewSingleAttr(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{K: 1, Tau: 4, Start: 1, End: 16, Scorer: scorer})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no results")
	}
}

func TestPublicAPITopK(t *testing.T) {
	ds := buildDataset(t, 200)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	items := eng.TopK(durable.MustLinear(1, 1), 5, lo, hi)
	if len(items) != 5 {
		t.Fatalf("TopK returned %d items", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Score > items[i-1].Score {
			t.Fatal("TopK must be score-descending")
		}
	}
}

func TestPublicAPIParseAlgorithm(t *testing.T) {
	alg, err := durable.ParseAlgorithm("s-hop")
	if err != nil || alg != durable.SHop {
		t.Fatalf("ParseAlgorithm: %v %v", alg, err)
	}
	if _, err := durable.ParseAlgorithm("x"); err == nil {
		t.Fatal("bad name must fail")
	}
}

func TestPublicAPICosine(t *testing.T) {
	ds := buildDataset(t, 300)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	cos, err := durable.NewCosine([]float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{K: 2, Tau: 30, Start: lo, End: hi, Scorer: cos})
	if err != nil {
		t.Fatal(err)
	}
	want := durable.BruteForce(ds, cos, 2, 30, lo, hi, durable.LookBack)
	if !reflect.DeepEqual(res.IDs(), want) {
		t.Fatalf("cosine answer %v want %v", res.IDs(), want)
	}
	// S-Band must refuse the non-monotone scorer.
	if _, err := eng.DurableTopK(durable.Query{
		K: 2, Tau: 30, Start: lo, End: hi, Scorer: cos, Algorithm: durable.SBand,
	}); err == nil {
		t.Fatal("s-band with cosine must fail")
	}
}

func TestPublicAPIErrorPropagation(t *testing.T) {
	if _, err := durable.NewDataset(nil, nil); err == nil {
		t.Fatal("empty dataset must fail")
	}
	if _, err := durable.NewLinear(nil); err == nil {
		t.Fatal("empty weights must fail")
	}
	ds := buildDataset(t, 10)
	eng := openEngine(t, ds)
	if _, err := eng.DurableTopK(durable.Query{K: 0, Scorer: durable.MustLinear(1, 1)}); err == nil {
		t.Fatal("bad query must fail")
	}
}

func TestPublicAPIMaxDuration(t *testing.T) {
	ds := buildDataset(t, 400)
	eng := openEngine(t, ds)
	s := durable.MustLinear(1, 1)
	dur, full := eng.MaxDuration(200, 3, s, durable.LookBack)
	if dur < 0 {
		t.Fatalf("MaxDuration=%d", dur)
	}
	_ = full
}

func TestPublicAPIMostDurable(t *testing.T) {
	ds := buildDataset(t, 500)
	eng := openEngine(t, ds)
	s := durable.MustLinear(1, 1)
	top, err := eng.MostDurable(3, s, durable.LookBack, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("MostDurable returned %d", len(top))
	}
	profile, err := eng.DurabilityProfile(3, s, durable.LookBack)
	if err != nil {
		t.Fatal(err)
	}
	if len(profile) != ds.Len() {
		t.Fatalf("profile covers %d of %d records", len(profile), ds.Len())
	}
}

func TestPublicAPICompileScorer(t *testing.T) {
	ds := buildDataset(t, 400)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()

	compiled, err := durable.CompileScorer("x0 + 0.5*x1", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !compiled.IsMonotone() {
		t.Fatal("non-negative linear expression should be monotone")
	}
	q := durable.Query{K: 2, Tau: 40, Start: lo, End: hi, Scorer: compiled}
	res, err := eng.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.DurableTopK(durable.Query{
		K: 2, Tau: 40, Start: lo, End: hi, Scorer: durable.MustLinear(1, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.IDs(), want.IDs()) {
		t.Fatalf("compiled scorer answer %v, native %v", res.IDs(), want.IDs())
	}

	// Named attributes.
	named, err := durable.CompileScorer("2*power + bonus", 2, []string{"power", "bonus"})
	if err != nil {
		t.Fatal(err)
	}
	if got := named.Score([]float64{3, 4}); got != 10 {
		t.Fatalf("named expression = %v, want 10", got)
	}

	// Compile errors surface.
	if _, err := durable.CompileScorer("(", 2, nil); err == nil {
		t.Fatal("expected compile error")
	}
}

func TestPublicAPIGeneralAnchor(t *testing.T) {
	ds := buildDataset(t, 400)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	s := durable.MustLinear(1, 0)
	const tau, lead = 60, 25

	res, err := eng.DurableTopK(durable.Query{
		K: 2, Tau: tau, Lead: lead, Start: lo, End: hi,
		Scorer: s, Anchor: durable.General,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := durable.BruteForceAnchored(ds, s, 2, tau, lead, lo, hi)
	if !reflect.DeepEqual(res.IDs(), want) {
		t.Fatalf("general anchor answer %v, oracle %v", res.IDs(), want)
	}
}

func TestPublicAPIExplain(t *testing.T) {
	ds := buildDataset(t, 400)
	eng := openEngine(t, ds)
	lo, hi := ds.Span()
	plan, err := eng.Explain(durable.Query{
		K: 2, Tau: 40, Start: lo, End: hi, Scorer: durable.MustLinear(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Estimates) != 5 || plan.ExpectedAnswer <= 0 {
		t.Fatalf("unexpected plan: %+v", plan)
	}
}

func TestPublicAPIMonitor(t *testing.T) {
	ds := buildDataset(t, 300)
	s := durable.MustLinear(1, 0)
	mon, err := durable.NewMonitor(2, 50, s, durable.MonitorOptions{TrackAhead: true})
	if err != nil {
		t.Fatal(err)
	}
	var live []int
	var confirmed []int
	for i := 0; i < ds.Len(); i++ {
		rec := ds.Record(i)
		dec, confirms, err := mon.Observe(rec.Time, rec.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Durable {
			live = append(live, i)
		}
		for _, c := range confirms {
			if c.Durable {
				confirmed = append(confirmed, c.ID)
			}
		}
	}
	for _, c := range mon.Finish() {
		if c.Durable {
			confirmed = append(confirmed, c.ID)
		}
	}
	lo, hi := ds.Span()
	back := durable.BruteForce(ds, s, 2, 50, lo, hi, durable.LookBack)
	ahead := durable.BruteForce(ds, s, 2, 50, lo, hi, durable.LookAhead)
	if !reflect.DeepEqual(live, back) {
		t.Fatalf("monitor look-back %v, oracle %v", live, back)
	}
	if !reflect.DeepEqual(confirmed, ahead) {
		t.Fatalf("monitor look-ahead %v, oracle %v", confirmed, ahead)
	}
}

func TestPublicAPISharded(t *testing.T) {
	ds := buildDataset(t, 900)
	eng := openEngine(t, ds)
	scorer := durable.MustLinear(1, 0.5)
	lo, hi := ds.Span()
	q := durable.Query{K: 3, Tau: 120, Start: lo, End: hi, Scorer: scorer}
	want, err := eng.DurableTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []durable.ShardStrategy{durable.ByCount, durable.ByTimeSpan} {
		se := openSharded(t, ds, durable.ShardOptions{Shards: 6, Strategy: strategy})
		if se.NumShards() != 6 {
			t.Fatalf("%v: %d shards, want 6", strategy, se.NumShards())
		}
		res, err := se.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.IDs(), want.IDs()) {
			t.Fatalf("%v: sharded answer differs:\n got %v\nwant %v", strategy, res.IDs(), want.IDs())
		}
		// The sharded engine serves the same auxiliary surface.
		if _, err := se.Explain(q); err != nil {
			t.Fatal(err)
		}
		top, err := se.MostDurable(3, scorer, durable.LookBack, 4)
		if err != nil || len(top) != 4 {
			t.Fatalf("sharded MostDurable: %v (%d records)", err, len(top))
		}
	}
	// Both engine flavors satisfy the shared Querier contract.
	for _, qr := range []durable.Querier{eng, openSharded(t, ds, durable.ShardOptions{Shards: 2})} {
		if qr.Dataset().Len() != ds.Len() {
			t.Fatal("Querier dataset mismatch")
		}
	}
}

func TestPublicAPIParseShardStrategy(t *testing.T) {
	for name, want := range map[string]durable.ShardStrategy{"count": durable.ByCount, "timespan": durable.ByTimeSpan} {
		got, err := durable.ParseShardStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseShardStrategy(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Fatalf("round trip %q -> %q", name, got)
		}
	}
	if _, err := durable.ParseShardStrategy("hash"); err == nil {
		t.Fatal("bogus strategy accepted")
	}
}
