package bench

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/score"
	"repro/internal/skyband"
	"repro/internal/stats"
	"repro/internal/topk"
	"repro/internal/windows"
)

// runLemma4 validates Lemma 4: under the random permutation model the
// expected answer size is k*|I|/(tau+1).
func runLemma4(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(40_000)
	header(w, fmt.Sprintf("Lemma 4: E[|S|] = k*|I|/(tau+1) under the random permutation model (n=%d)", n))
	ta := newTable(w)
	ta.row("k", "tau", "|I|", "predicted", "measured", "ratio")
	cases := []struct{ k, tauPct, iPct int }{
		{1, 5, 50}, {5, 5, 50}, {10, 10, 50}, {10, 25, 80}, {25, 10, 50}, {5, 50, 80},
	}
	if cfg.Quick {
		cases = cases[:3]
	}
	trials := 9
	for _, c := range cases {
		var sizes []float64
		var tau, ilen int64
		for t := 0; t < trials; t++ {
			ds := datagen.RPM(cfg.Seed+int64(100*t), n)
			eng := core.NewEngine(ds, core.Options{})
			lo, hi := ds.Span()
			span := hi - lo
			tau = span * int64(c.tauPct) / 100
			ilen = span * int64(c.iPct) / 100
			res, err := eng.DurableTopK(core.Query{
				K: c.k, Tau: tau, Start: hi - ilen, End: hi,
				Scorer: mustSingle(), Algorithm: core.THop,
			})
			if err != nil {
				return err
			}
			sizes = append(sizes, float64(len(res.Records)))
		}
		predicted := float64(c.k) * float64(ilen+1) / float64(tau+1)
		measured := stats.Mean(sizes)
		ta.row(c.k, tau, ilen, fmt.Sprintf("%.1f", predicted), fmt.Sprintf("%.1f", measured),
			fmt.Sprintf("%.3f", measured/predicted))
	}
	ta.flush()
	fmt.Fprintln(w, "\npaper shape: measured/predicted ratio ~1.0 for every (k, tau, |I|)")
	return nil
}

// mustSingle ranks 1-d records by their only attribute.
func mustSingle() score.Scorer {
	s, err := score.NewSingle(0, 1)
	if err != nil {
		panic(err)
	}
	return s
}

// runLemma5 validates Lemma 5: on random independent data the durable
// k-skyband candidate count grows like k*(|I|/tau)*log^{d-1}(tau).
func runLemma5(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(20_000)
	k := defaultK
	header(w, fmt.Sprintf("Lemma 5: E[|C|] = O(k*|I|/tau*log^(d-1) tau) on IND data (n=%d, k=%d)", n, k))
	ta := newTable(w)
	ta.row("d", "tau", "|C| measured", "k|I|/tau", "log^(d-1)tau", "|C| / (k|I|/tau)", "bound ratio")
	dims := []int{1, 2, 3, 4}
	if cfg.Quick {
		dims = []int{2, 3}
	}
	for _, d := range dims {
		ds := datagen.IND(cfg.Seed, n, d)
		lo, hi := ds.Span()
		span := hi - lo
		tau := span * defaultTauPct / 100
		ilen := span * defaultIPct / 100
		ladder := skyband.NewLadder(ds, 0, 0) // exact durations
		count := float64(ladder.CandidateCount(k, hi-ilen, hi, tau))
		base := float64(k) * float64(ilen) / float64(tau)
		logF := math.Pow(math.Log(float64(tau)+2), float64(d-1))
		ta.row(d, tau, fmt.Sprintf("%.0f", count), fmt.Sprintf("%.1f", base),
			fmt.Sprintf("%.1f", logF),
			fmt.Sprintf("%.2f", count/base),
			fmt.Sprintf("%.3f", count/(base*logF)))
	}
	ta.flush()
	fmt.Fprintln(w, "\npaper shape: |C|/(k|I|/tau) grows ~log^(d-1) tau; the bound ratio stays O(1) across d")
	return nil
}

// runAblationThreshold measures the LengthThreshold trade-off of the
// building-block index.
func runAblationThreshold(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	ds, err := DatasetFor(cfg, "network-5")
	if err != nil {
		return err
	}
	header(w, "Ablation: index LengthThreshold (network-5, defaults k/tau/|I|)")
	ta := newTable(w)
	ta.row("threshold", "build ms", "s-hop ms", "t-hop ms")
	for _, lt := range []int{32, 128, 512, 2048} {
		buildStart := time.Now()
		eng := core.NewEngine(ds, core.Options{
			Index:             topk.Options{LengthThreshold: lt},
			SkybandScanBudget: 4096,
		})
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
		spec := QuerySpec{K: defaultK, TauPct: defaultTauPct, IPct: defaultIPct}
		mh, err := RunConfiguration(eng, spec, core.SHop, cfg.Reps, cfg.Seed)
		if err != nil {
			return err
		}
		mt, err := RunConfiguration(eng, spec, core.THop, cfg.Reps, cfg.Seed)
		if err != nil {
			return err
		}
		ta.row(lt, fmt.Sprintf("%.1f", buildMS), ms(mh.TimeMS), ms(mt.TimeMS))
	}
	ta.flush()
	return nil
}

// runAblationBounds contrasts skyline-based node bounds with MBR-only
// bounds on correlated vs anti-correlated data.
func runAblationBounds(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(30_000)
	header(w, "Ablation: node summaries — capped skyline vs MBR-only upper bounds")
	ta := newTable(w)
	ta.row("dataset", "summary", "build ms", "s-hop ms", "t-hop ms")
	for _, kind := range []string{"ind", "anti"} {
		ds, err := DatasetFor(cfg, fmt.Sprintf("%s-%d", kind, n))
		if err != nil {
			return err
		}
		for _, msk := range []int{topk.DefaultMaxNodeSkyline, -1} {
			label := "skyline"
			if msk < 0 {
				label = "mbr-only"
			}
			buildStart := time.Now()
			eng := core.NewEngine(ds, core.Options{
				Index:             topk.Options{MaxNodeSkyline: msk},
				SkybandScanBudget: 4096,
			})
			buildMS := float64(time.Since(buildStart).Microseconds()) / 1000
			spec := QuerySpec{K: defaultK, TauPct: defaultTauPct, IPct: defaultIPct}
			mh, err := RunConfiguration(eng, spec, core.SHop, cfg.Reps, cfg.Seed)
			if err != nil {
				return err
			}
			mt, err := RunConfiguration(eng, spec, core.THop, cfg.Reps, cfg.Seed)
			if err != nil {
				return err
			}
			ta.row(kind, label, fmt.Sprintf("%.1f", buildMS), ms(mh.TimeMS), ms(mt.TimeMS))
		}
	}
	ta.flush()
	return nil
}

// runAblationForest contrasts the static index with the appendable forest.
func runAblationForest(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(30_000)
	ds := datagen.IND(cfg.Seed, n, 2)
	header(w, fmt.Sprintf("Ablation: static tree vs appendable forest (IND n=%d)", n))

	staticStart := time.Now()
	idx := topk.Build(ds, topk.Options{})
	staticBuild := time.Since(staticStart)

	forestStart := time.Now()
	tail, err := data.NewAppendable(ds.Dims(), 0)
	if err != nil {
		return err
	}
	f := topk.NewForest(tail, topk.Options{})
	for i := 0; i < ds.Len(); i++ {
		if err := f.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			return err
		}
	}
	forestBuild := time.Since(forestStart)

	lo, hi := ds.Span()
	span := hi - lo
	reps := cfg.Reps * 40
	rng := nil2rng(cfg.Seed)
	var staticQ, forestQ time.Duration
	for r := 0; r < reps; r++ {
		s := RandomPreference(rng, ds.Dims())
		t2 := lo + int64(rng.Int63n(span))
		t1 := t2 - span/10
		st := time.Now()
		a := idx.Query(s, defaultK, t1, t2)
		staticQ += time.Since(st)
		st = time.Now()
		b := f.Query(s, defaultK, t1, t2)
		forestQ += time.Since(st)
		if len(a) != len(b) {
			return fmt.Errorf("forest/static disagreement: %d vs %d items", len(a), len(b))
		}
	}
	ta := newTable(w)
	ta.row("index", "build ms", "query us (avg)", "trees", "rebuilds")
	ta.row("static", fmt.Sprintf("%.1f", float64(staticBuild.Microseconds())/1000),
		fmt.Sprintf("%.1f", float64(staticQ.Microseconds())/float64(reps)), 1, 1)
	ta.row("forest", fmt.Sprintf("%.1f", float64(forestBuild.Microseconds())/1000),
		fmt.Sprintf("%.1f", float64(forestQ.Microseconds())/float64(reps)), f.Trees(), f.Rebuilds())
	ta.flush()
	fmt.Fprintln(w, "\nexpected: forest pays a modest query fan-out for O(log n) amortized appends")
	return nil
}

// runSlidingBaseline quantifies footnote 1: deriving the durable answer by
// post-filtering a full sliding-window pass versus running t-hop/s-hop.
func runSlidingBaseline(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	eng, err := EngineFor(cfg, "nba-2")
	if err != nil {
		return err
	}
	ds := eng.Dataset()
	spec := QuerySpec{K: defaultK, TauPct: defaultTauPct, IPct: defaultIPct}
	header(w, "Footnote-1 baseline: sliding-window post-filter vs hop algorithms (nba-2)")
	ta := newTable(w)
	ta.row("method", "time ms", "|S|")
	rng := nil2rng(cfg.Seed)
	s := RandomPreference(rng, ds.Dims())

	q := spec.Materialize(ds, s, core.THop)
	begin := time.Now()
	filtered := windows.SlidingFilterDurable(ds, eng.Index(), s, q.K, q.Tau, q.Start, q.End)
	slidingMS := float64(time.Since(begin).Microseconds()) / 1000
	ta.row("sliding+filter", fmt.Sprintf("%.2f", slidingMS), len(filtered))

	for _, alg := range []core.Algorithm{core.THop, core.SHop} {
		res, err := eng.DurableTopK(spec.Materialize(ds, s, alg))
		if err != nil {
			return err
		}
		if len(res.Records) != len(filtered) {
			return fmt.Errorf("sliding baseline disagreement: %d vs %d", len(filtered), len(res.Records))
		}
		ta.row(alg.String(), fmt.Sprintf("%.2f", float64(res.Stats.Elapsed.Microseconds())/1000), len(res.Records))
	}
	ta.flush()
	return nil
}
