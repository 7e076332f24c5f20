// Benchmarks regenerating the paper's evaluation: one testing.B benchmark
// per table and figure, each delegating to the same internal/bench harness
// the durbench CLI uses. Run them all with:
//
//	go test -bench=. -benchmem
//
// Sub-benchmark names encode the swept parameter and algorithm, so -bench
// can select slices of a figure, e.g.:
//
//	go test -bench 'Fig8VaryTau/nba-2/tau=25/s-hop'
package durable_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dbms"
	"repro/internal/expr"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/topk"
)

// benchConfig keeps dataset sizes moderate so the full suite finishes in
// minutes; raise Scale for paper-scale runs.
func benchConfig() bench.Config {
	return bench.Config{Scale: 0.25, Reps: 3, Seed: 1, Quick: true}
}

// runQuerySweep benchmarks one DurableTopK configuration per iteration.
func runQuerySweep(b *testing.B, dsName string, spec bench.QuerySpec, alg core.Algorithm) {
	b.Helper()
	eng, err := bench.EngineFor(benchConfig(), dsName)
	if err != nil {
		b.Fatal(err)
	}
	if alg == core.SBand {
		eng.PrepareSkyband(spec.K, core.LookBack)
	}
	ds := eng.Dataset()
	s := bench.RandomPreference(rngFor(dsName), ds.Dims())
	q := spec.Materialize(ds, s, alg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DurableTopK(q); err != nil {
			b.Fatal(err)
		}
	}
}

func rngFor(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(len(name)) + 7))
}

// --- Figure 8: vary tau -------------------------------------------------

func BenchmarkFig8VaryTau(b *testing.B) {
	for _, ds := range []string{"nba-2", "network-2"} {
		for _, tau := range []int{5, 10, 25, 50} {
			for _, alg := range core.Algorithms() {
				b.Run(fmt.Sprintf("%s/tau=%d/%s", ds, tau, alg), func(b *testing.B) {
					runQuerySweep(b, ds, bench.QuerySpec{K: 10, TauPct: tau, IPct: 50}, alg)
				})
			}
		}
	}
}

// --- Figure 9: vary k ----------------------------------------------------

func BenchmarkFig9VaryK(b *testing.B) {
	for _, k := range []int{5, 20, 50} {
		for _, alg := range core.Algorithms() {
			b.Run(fmt.Sprintf("nba-2/k=%d/%s", k, alg), func(b *testing.B) {
				runQuerySweep(b, "nba-2", bench.QuerySpec{K: k, TauPct: 10, IPct: 50}, alg)
			})
		}
	}
}

// --- Figure 10: vary |I| -------------------------------------------------

func BenchmarkFig10VaryI(b *testing.B) {
	for _, ipct := range []int{10, 40, 80} {
		for _, alg := range core.Algorithms() {
			b.Run(fmt.Sprintf("nba-2/i=%d/%s", ipct, alg), func(b *testing.B) {
				runQuerySweep(b, "nba-2", bench.QuerySpec{K: 10, TauPct: 10, IPct: ipct}, alg)
			})
		}
	}
}

// --- Figure 11: vary dimensionality --------------------------------------

func BenchmarkFig11VaryD(b *testing.B) {
	for _, d := range []int{2, 5, 10, 20} {
		for _, alg := range []core.Algorithm{core.TBase, core.THop, core.SBand, core.SHop} {
			b.Run(fmt.Sprintf("network-%d/%s", d, alg), func(b *testing.B) {
				runQuerySweep(b, fmt.Sprintf("network-%d", d),
					bench.QuerySpec{K: 10, TauPct: 10, IPct: 50}, alg)
			})
		}
	}
}

// --- Figure 12: scalability ----------------------------------------------

func BenchmarkFig12Scalability(b *testing.B) {
	for _, kind := range []string{"ind", "anti"} {
		for _, n := range []int{5_000, 20_000, 80_000} {
			for _, alg := range []core.Algorithm{core.THop, core.SHop} {
				b.Run(fmt.Sprintf("%s-%d/%s", kind, n, alg), func(b *testing.B) {
					runQuerySweep(b, fmt.Sprintf("%s-%d", kind, n),
						bench.QuerySpec{K: 10, TauPct: 10, IPct: 50}, alg)
				})
			}
		}
	}
}

// --- Figure 13: 5-d NBA projections --------------------------------------

func BenchmarkFig13Distribution(b *testing.B) {
	for _, alg := range []core.Algorithm{core.THop, core.SHop, core.SBand} {
		b.Run(fmt.Sprintf("nba-5/%s", alg), func(b *testing.B) {
			runQuerySweep(b, "nba-5", bench.QuerySpec{K: 10, TauPct: 10, IPct: 50}, alg)
		})
	}
}

// --- Figure 1: case study ------------------------------------------------

func BenchmarkFig1CaseStudy(b *testing.B) {
	eng, err := bench.EngineFor(benchConfig(), "nba-1")
	if err != nil {
		b.Fatal(err)
	}
	ds := eng.Dataset()
	lo, hi := ds.Span()
	s := bench.RandomPreference(rngFor("nba-1"), 1)
	q := core.Query{K: 1, Tau: (hi - lo) / 7, Start: lo, End: hi, Scorer: s, Algorithm: core.SHop}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DurableTopK(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables IV-VI: DBMS backend -------------------------------------------

func benchmarkDBMS(b *testing.B, dsName string, n, tauPct, iPct int, hop bool) {
	b.Helper()
	cfg := benchConfig()
	ds, err := bench.DatasetFor(cfg, dsName)
	if err != nil {
		b.Fatal(err)
	}
	if n > 0 && n < ds.Len() {
		ds = ds.Prefix(n)
	}
	db, err := dbms.Load(ds, dbms.Options{})
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := ds.Span()
	span := hi - lo
	tau := span * int64(tauPct) / 100
	start := hi - span*int64(iPct)/100
	s := bench.RandomPreference(rngFor(dsName), ds.Dims())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := db.Pool.DropAll(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if hop {
			_, _, err = db.DurableTHop(s, 10, tau, start, hi)
		} else {
			_, _, err = db.DurableTBase(s, 10, tau, start, hi)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4DBMSVaryTau(b *testing.B) {
	for _, tau := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("t-hop/tau=%d", tau), func(b *testing.B) {
			benchmarkDBMS(b, "nba-2", 10_000, tau, 50, true)
		})
		b.Run(fmt.Sprintf("t-base/tau=%d", tau), func(b *testing.B) {
			benchmarkDBMS(b, "nba-2", 10_000, tau, 50, false)
		})
	}
}

func BenchmarkTable5DBMSVaryI(b *testing.B) {
	for _, ipct := range []int{10, 30, 50} {
		b.Run(fmt.Sprintf("t-hop/i=%d", ipct), func(b *testing.B) {
			benchmarkDBMS(b, "nba-2", 10_000, 10, ipct, true)
		})
		b.Run(fmt.Sprintf("t-base/i=%d", ipct), func(b *testing.B) {
			benchmarkDBMS(b, "nba-2", 10_000, 10, ipct, false)
		})
	}
}

func BenchmarkTable6DBMSDatasets(b *testing.B) {
	for _, ds := range []string{"nba-2", "ind-30000", "anti-30000"} {
		b.Run(ds+"/t-hop", func(b *testing.B) { benchmarkDBMS(b, ds, 30_000, 10, 50, true) })
		b.Run(ds+"/t-base", func(b *testing.B) { benchmarkDBMS(b, ds, 30_000, 10, 50, false) })
	}
}

// --- Lemma 4: answer-size scaling -----------------------------------------

func BenchmarkLemma4RPM(b *testing.B) {
	eng, err := bench.EngineFor(benchConfig(), "rpm-40000")
	if err != nil {
		b.Fatal(err)
	}
	ds := eng.Dataset()
	lo, hi := ds.Span()
	span := hi - lo
	s, err := score.NewSingle(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	q := core.Query{K: 10, Tau: span / 10, Start: hi - span/2, End: hi, Scorer: s, Algorithm: core.THop}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DurableTopK(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationLengthThreshold(b *testing.B) {
	var sink io.Writer = io.Discard
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := bench.Config{Scale: 0.05, Reps: 2, Seed: 1, Quick: true}
			if err := bench.Run("abl-threshold", cfg, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationForestVsStatic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.Config{Scale: 0.05, Reps: 2, Seed: 1, Quick: true}
		if err := bench.Run("abl-forest", cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNodeBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.Config{Scale: 0.05, Reps: 2, Seed: 1, Quick: true}
		if err := bench.Run("abl-bounds", cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := bench.Config{Scale: 0.05, Reps: 2, Seed: 1, Quick: true}
		if err := bench.Run("abl-planner", cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions -------------------------------------------------------------

// BenchmarkExtAnchorLeads measures one mid-anchored durable query per lead
// share (the general-anchor extension of §II).
func BenchmarkExtAnchorLeads(b *testing.B) {
	eng, err := bench.EngineFor(benchConfig(), "nba-2")
	if err != nil {
		b.Fatal(err)
	}
	ds := eng.Dataset()
	lo, hi := ds.Span()
	span := hi - lo
	tau := span / 10
	s := bench.RandomPreference(rngFor("anchor"), ds.Dims())
	for _, leadPct := range []int64{0, 50, 100} {
		for _, alg := range []core.Algorithm{core.THop, core.SHop} {
			b.Run(fmt.Sprintf("lead=%d%%/%s", leadPct, alg), func(b *testing.B) {
				q := core.Query{
					K: 10, Tau: tau, Lead: tau * leadPct / 100,
					Start: hi - span/2, End: hi,
					Scorer: s, Algorithm: alg, Anchor: core.General,
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.DurableTopK(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExtExprScorers compares native and expression-compiled scorers
// through the full query path.
func BenchmarkExtExprScorers(b *testing.B) {
	eng, err := bench.EngineFor(benchConfig(), "nba-2")
	if err != nil {
		b.Fatal(err)
	}
	ds := eng.Dataset()
	lo, hi := ds.Span()
	span := hi - lo
	scorers := []struct {
		name string
		s    core.Query // only Scorer is taken from here
	}{
		{"native-linear", core.Query{Scorer: score.MustLinear(0.6, 0.4)}},
		{"compiled-linear", core.Query{Scorer: expr.MustCompile("0.6*x0 + 0.4*x1", expr.Options{Dims: 2})}},
		{"compiled-nonlinear", core.Query{Scorer: expr.MustCompile("log1p(x0)*2 + sqrt(max(x1, 0))", expr.Options{Dims: 2})}},
	}
	for _, sc := range scorers {
		b.Run(sc.name, func(b *testing.B) {
			q := core.Query{
				K: 10, Tau: span / 10, Start: hi - span/2, End: hi,
				Scorer: sc.s.Scorer, Algorithm: core.THop,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.DurableTopK(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExprCompile measures expression compilation alone.
func BenchmarkExprCompile(b *testing.B) {
	const src = "0.6*points + 0.3*assists + 2*log1p(rebounds) - min(steals, blocks)"
	opts := expr.Options{Names: []string{"points", "assists", "rebounds", "steals", "blocks"}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExprScore measures one compiled-expression evaluation.
func BenchmarkExprScore(b *testing.B) {
	e := expr.MustCompile("0.6*x0 + 0.3*x1 + 2*log1p(x2)", expr.Options{Dims: 3})
	x := []float64{21, 7, 11}
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += e.Score(x)
	}
	_ = sink
}

// --- Bulk scoring fast path --------------------------------------------------

// BenchmarkRangeTopKProbe measures one leaf-scan-heavy range top-k probe —
// the innermost building block every durable strategy issues hundreds of
// times per query — with bulk vs scalar scoring and a shared scratch.
// benchstat bulk vs scalar quantifies the columnar fast path.
func BenchmarkRangeTopKProbe(b *testing.B) {
	cfg := benchConfig()
	for _, dsName := range []string{"nba-2", "network-5"} {
		eng, err := bench.EngineFor(cfg, dsName)
		if err != nil {
			b.Fatal(err)
		}
		ds := eng.Dataset()
		idx := topk.Build(ds, bench.EngineOptions().Index)
		lin := bench.RandomPreference(rngFor(dsName), ds.Dims())
		n := ds.Len()
		span := n / 10
		for _, sc := range []struct {
			name   string
			scorer score.Scorer
		}{{"bulk", lin}, {"scalar", bench.Scalarized{S: lin}}} {
			b.Run(fmt.Sprintf("%s/%s", dsName, sc.name), func(b *testing.B) {
				scr := topk.GetScratch()
				defer topk.PutScratch(scr)
				var dst []topk.Item
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lo := (i * 131) % (n - span)
					dst = idx.QueryRangeInto(sc.scorer, 10, lo, lo+span, scr, dst)
				}
			})
		}
	}
}

// BenchmarkDurableBulkVsScalar runs a full durable query with and without
// the bulk-scoring capability, isolating the end-to-end effect of the
// columnar fast path on the paper's algorithms.
func BenchmarkDurableBulkVsScalar(b *testing.B) {
	eng, err := bench.EngineFor(benchConfig(), "nba-2")
	if err != nil {
		b.Fatal(err)
	}
	ds := eng.Dataset()
	lin := bench.RandomPreference(rngFor("nba-2"), ds.Dims())
	for _, alg := range []core.Algorithm{core.THop, core.SHop} {
		for _, sc := range []struct {
			name   string
			scorer score.Scorer
		}{{"bulk", lin}, {"scalar", bench.Scalarized{S: lin}}} {
			b.Run(fmt.Sprintf("%s/%s", alg, sc.name), func(b *testing.B) {
				q := bench.QuerySpec{K: 10, TauPct: 10, IPct: 50}.Materialize(ds, sc.scorer, alg)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := eng.DurableTopK(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlannerChoose measures one cost-model evaluation.
func BenchmarkPlannerChoose(b *testing.B) {
	in := planner.Inputs{
		N: 1_000_000, Dims: 5, NI: 500_000,
		K: 10, Tau: 100_000, Window: 500_000, Monotone: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = planner.Choose(in)
	}
}
