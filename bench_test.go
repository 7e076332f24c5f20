// Single-layer micro-benchmarks: expression compile and evaluation, one range
// top-k probe, a durable query with and without bulk scoring, and one
// planner cost-model evaluation. The paper's tables and figures are
// experiments of internal/bench; regenerate them with `durbench -exp`.
// Run these with:
//
//	go test -run xxx -bench . -benchmem .
package durable_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/planner"
	"repro/internal/score"
	"repro/internal/topk"
)

// benchConfig keeps dataset sizes moderate so the benchmarks start in
// seconds.
func benchConfig() bench.Config {
	return bench.Config{Scale: 0.25, Reps: 3, Seed: 1, Quick: true}
}

func rngFor(name string) *rand.Rand {
	return rand.New(rand.NewSource(int64(len(name)) + 7))
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
