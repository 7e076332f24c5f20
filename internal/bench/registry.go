package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one regenerable table or figure.
type Experiment struct {
	ID    string
	Paper string // which paper artifact it reproduces
	Title string
	Run   func(cfg Config, w io.Writer) error
}

var registry = []Experiment{
	{ID: "fig1", Paper: "Figure 1", Title: "case study: durable vs tumbling vs sliding top-k", Run: runFig1},
	{ID: "fig7", Paper: "Figure 7", Title: "synthetic value distributions (IND, ANTI)", Run: runFig7},
	{ID: "fig8", Paper: "Figure 8", Title: "performance as tau varies (NBA-2, Network-2)", Run: runFig8},
	{ID: "fig9", Paper: "Figure 9", Title: "performance as k varies (NBA-2, Network-2)", Run: runFig9},
	{ID: "fig10", Paper: "Figure 10", Title: "performance as |I| varies (NBA-2, Network-2)", Run: runFig10},
	{ID: "fig11", Paper: "Figure 11", Title: "performance as dimensionality varies (Network-X)", Run: runFig11},
	{ID: "fig12", Paper: "Figure 12", Title: "scalability on Syn IND/ANTI", Run: runFig12},
	{ID: "fig13", Paper: "Figure 13", Title: "runtime distribution over random 5-d NBA projections", Run: runFig13},
	{ID: "tab4", Paper: "Table IV", Title: "DBMS backend: varying tau", Run: runTable4},
	{ID: "tab5", Paper: "Table V", Title: "DBMS backend: varying |I|", Run: runTable5},
	{ID: "tab6", Paper: "Table VI", Title: "DBMS backend: dataset comparison", Run: runTable6},
	{ID: "lemma4", Paper: "Lemma 4", Title: "expected answer size under the random permutation model", Run: runLemma4},
	{ID: "lemma5", Paper: "Lemma 5", Title: "expected durable k-skyband candidate count", Run: runLemma5},
	{ID: "abl-threshold", Paper: "ablation", Title: "index LengthThreshold sweep", Run: runAblationThreshold},
	{ID: "abl-bounds", Paper: "ablation", Title: "skyline vs MBR-only node bounds", Run: runAblationBounds},
	{ID: "abl-forest", Paper: "ablation", Title: "static tree vs appendable forest", Run: runAblationForest},
	{ID: "shardscale", Paper: "extension", Title: "time-sharded scale-out: latency vs shard count", Run: runShardScale},
	{ID: "abl-planner", Paper: "ablation", Title: "cost-based Auto planner vs fixed strategies", Run: runAblationPlanner},
	{ID: "ext-anchor", Paper: "extension", Title: "mid-anchored durability windows (lead sweep)", Run: runExtAnchor},
	{ID: "ext-expr", Paper: "extension", Title: "compiled scoring expressions vs native scorers", Run: runExtExpr},
	{ID: "ext-stream", Paper: "extension", Title: "streaming durability: forest probes vs monitor", Run: runExtStream},
	{ID: "streamscale", Paper: "extension", Title: "live ingestion: appends/sec, rebuild amortization, freshness", Run: runStreamScale},
	{ID: "livesharded", Paper: "extension", Title: "live+sharded lifecycle: seal/freeze amortization, sealed+tail queries", Run: runLiveShardedScale},
	{ID: "compaction", Paper: "extension", Title: "sealed-shard compaction: shard count, shards visited and steady query with/without LSM leveling", Run: runCompactionScale},
	{ID: "servescale", Paper: "extension", Title: "concurrent serving: queries/sec vs client count, result-cache hit rate", Run: runServeScale},
	{ID: "standing", Paper: "extension", Title: "standing queries: appends/sec and confirm latency vs subscription count", Run: runStandingScale},
	{ID: "sliding-baseline", Paper: "footnote 1", Title: "sliding-window post-filter baseline", Run: runSlidingBaseline},
}

// Registry lists all experiments in presentation order.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (have %v)", id, ids)
}

// Run executes one experiment by id.
func Run(id string, cfg Config, w io.Writer) error {
	e, err := Get(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n#### %s — %s (%s)\n", e.ID, e.Title, e.Paper)
	return e.Run(cfg, w)
}

// RunAll executes every experiment.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range registry {
		if err := Run(e.ID, cfg, w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}
