package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
)

// shardSweep is the shard-count trajectory tracked in BENCH_sharded.json.
var shardSweep = []int{1, 2, 4, 8}

// ShardPerf is one row of the shard-scaling snapshot: end-to-end durable
// top-k latency through a ShardedEngine with the given shard count.
type ShardPerf struct {
	Shards      int     `json:"shards"`
	NsPerOp     float64 `json:"ns_per_op"`
	Speedup     float64 `json:"speedup_vs_1_shard"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// ShardsPruned is Stats.ShardsPruned for one evaluation of the tracked
	// query: shard visits skipped by the reach-based router plus
	// cross-shard probes skipped by the per-shard score upper bound. It
	// proves the pruning is actually exercised at this shard count.
	ShardsPruned int `json:"shards_pruned_per_op"`
}

// ShardReport is the schema of BENCH_sharded.json: query latency and speedup
// versus the single-shard baseline as the shard count grows, tracked across
// PRs alongside BENCH_topk.json. A query is one span evaluated on one
// goroutine, so the speedup column shows what splitting the index costs a
// probe, not a fan-out.
type ShardReport struct {
	Dataset    string      `json:"dataset"`
	Records    int         `json:"records"`
	Dims       int         `json:"dims"`
	K          int         `json:"k"`
	TauPct     int         `json:"tau_pct"`
	IPct       int         `json:"i_pct"`
	Strategy   string      `json:"strategy"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	Rows       []ShardPerf `json:"rows"`
}

// ShardScaleReport measures one durable top-k query evaluation per iteration
// through ShardedEngine at each sweep point (ByCount partitioning), on the
// synthetic workload of the given dataset.
func ShardScaleReport(cfg Config, dsName string) (*ShardReport, error) {
	cfg = cfg.withDefaults()
	ds, err := DatasetFor(cfg, dsName)
	if err != nil {
		return nil, err
	}
	spec := QuerySpec{K: defaultK, TauPct: defaultTauPct, IPct: defaultIPct}
	rep := &ShardReport{
		Dataset: dsName, Records: ds.Len(), Dims: ds.Dims(),
		K: spec.K, TauPct: spec.TauPct, IPct: spec.IPct,
		Strategy:   core.ByCount.String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := RandomPreference(rng, ds.Dims())
	// The hop strategy is the paper's general-purpose winner; pinning it
	// keeps the sweep an apples-to-apples shard-count comparison rather than
	// a planner comparison.
	q := spec.Materialize(ds, s, core.SHop)
	for _, shards := range shardSweep {
		se := core.NewShardedEngine(ds, EngineOptions(), core.ShardOptions{Shards: shards})
		var evalErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := se.DurableTopK(q); err != nil {
					evalErr = err
					b.FailNow()
				}
			}
		})
		if evalErr != nil {
			return nil, fmt.Errorf("bench: %d shards: %w", shards, evalErr)
		}
		res, err := se.DurableTopK(q)
		if err != nil {
			return nil, fmt.Errorf("bench: %d shards: %w", shards, err)
		}
		row := ShardPerf{
			Shards:       shards,
			NsPerOp:      float64(r.NsPerOp()),
			AllocsPerOp:  r.AllocsPerOp(),
			BytesPerOp:   r.AllocedBytesPerOp(),
			ShardsPruned: res.Stats.ShardsPruned,
		}
		if len(rep.Rows) > 0 && row.NsPerOp > 0 {
			row.Speedup = rep.Rows[0].NsPerOp / row.NsPerOp
		} else {
			row.Speedup = 1
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// WriteShardJSON runs ShardScaleReport and writes BENCH_sharded.json.
func WriteShardJSON(cfg Config, dsName, path string) error {
	rep, err := ShardScaleReport(cfg, dsName)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runShardScale is the registry experiment: the BENCH_sharded.json sweep
// rendered as a table. (Correctness of the sharded answers is enforced by
// the differential and fuzz harnesses in internal/core, not here.)
func runShardScale(cfg Config, w io.Writer) error {
	dsName := "nba-2"
	if cfg.Quick {
		dsName = "ind-4000"
	}
	rep, err := ShardScaleReport(cfg, dsName)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset=%s n=%d d=%d | k=%d tau=%d%% |I|=%d%% | strategy=%s | GOMAXPROCS=%d\n",
		rep.Dataset, rep.Records, rep.Dims, rep.K, rep.TauPct, rep.IPct, rep.Strategy, rep.GOMAXPROCS)
	fmt.Fprintf(w, "%-8s %14s %10s %12s %8s\n", "shards", "ns/op", "speedup", "allocs/op", "pruned")
	for _, row := range rep.Rows {
		fmt.Fprintf(w, "%-8d %14.0f %9.2fx %12d %8d\n",
			row.Shards, row.NsPerOp, row.Speedup, row.AllocsPerOp, row.ShardsPruned)
	}
	return nil
}
