package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/rmq"
	"repro/internal/score"
)

// runAblationBlock contrasts the default tree building block with the
// sparse-table RMQ block on a fixed-scorer, single-attribute workload (the
// regime the paper's NBA-1 / weather / RPM queries live in).
func runAblationBlock(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	n := cfg.scaled(50_000)
	ds := datagen.RPM(cfg.Seed, n)
	s, err := score.NewSingle(0, 1)
	if err != nil {
		return err
	}
	lo, hi := ds.Span()
	span := hi - lo
	header(w, fmt.Sprintf("Ablation: tree vs RMQ building block (RPM n=%d, fixed single-attribute scorer)", n))
	ta := newTable(w)
	ta.row("block", "build ms", "t-hop ms", "s-hop ms")

	type buildCase struct {
		name string
		opts core.Options
	}
	cases := []buildCase{
		{"tree", core.Options{}},
		{"rmq", core.Options{NewBlock: func(d *data.Dataset) core.Block { return rmq.NewBlock(d) }}},
	}
	for _, c := range cases {
		buildStart := time.Now()
		eng := core.NewEngine(ds, c.opts)
		// The RMQ block builds its per-scorer table lazily; charge it to
		// build time with one warm-up probe.
		eng.TopK(s, 1, lo, hi)
		buildMS := float64(time.Since(buildStart).Microseconds()) / 1000

		var hopMS, shopMS []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			q := core.Query{
				K: defaultK, Tau: span * defaultTauPct / 100,
				Start: hi - span*defaultIPct/100, End: hi, Scorer: s,
			}
			q.Algorithm = core.THop
			res, err := eng.DurableTopK(q)
			if err != nil {
				return err
			}
			hopMS = append(hopMS, float64(res.Stats.Elapsed.Microseconds())/1000)
			q.Algorithm = core.SHop
			res, err = eng.DurableTopK(q)
			if err != nil {
				return err
			}
			shopMS = append(shopMS, float64(res.Stats.Elapsed.Microseconds())/1000)
		}
		ta.row(c.name, fmt.Sprintf("%.1f", buildMS), ms(hopMS), ms(shopMS))
	}
	ta.flush()
	fmt.Fprintln(w, "\nexpected: RMQ answers fixed-scorer probes faster; the tree needs no per-scorer preprocessing")
	return nil
}
