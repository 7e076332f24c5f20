package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/store"
	"repro/internal/wal"
)

// StreamReport is the schema of BENCH_stream.json: the live-ingestion
// trajectory tracked across PRs alongside BENCH_topk.json and
// BENCH_sharded.json. Throughput numbers are host-dependent (compare against
// the recorded GOMAXPROCS); the amortization column is structural and
// host-independent.
type StreamReport struct {
	Dataset    string `json:"dataset"`
	Records    int    `json:"records"`
	Dims       int    `json:"dims"`
	K          int    `json:"k"`
	TauPct     int    `json:"tau_pct"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	// Pure ingestion: sustained Append throughput over the whole dataset,
	// plus the incremental index's rebuild accounting.
	AppendsPerSec float64 `json:"appends_per_sec"`
	Rebuilds      int     `json:"rebuilds"`
	// IndexedRowsPerAppend is the rebuild amortization constant: total rows
	// (re)indexed by chunk-tree builds divided by records appended. The
	// logarithmic method bounds it by O(log n).
	IndexedRowsPerAppend float64 `json:"indexed_rows_per_append"`

	// Interleaved append+query: every append is followed by a durable
	// top-k query over the trailing window — the freshness lag is how long
	// an arrival takes to be reflected in a queryable answer (append +
	// first consistent query, amortized over the stream).
	IngestWithQueriesPerSec float64 `json:"ingest_with_queries_per_sec"`
	FreshnessLagNs          float64 `json:"freshness_lag_ns"`

	// Steady state: repeated durable top-k queries with no appends in
	// between (memoized snapshot engine, warm probe scratch). Allocation
	// counts are host-independent, so the benchmark gate holds the line on
	// them the way it does for the probe rows of BENCH_topk.json.
	SteadyQueryNs     float64 `json:"steady_query_ns"`
	SteadyQueryAllocs int64   `json:"steady_query_allocs"`
	SteadyQueryBytes  int64   `json:"steady_query_bytes"`

	// Live+sharded lifecycle: the same ingest routed through a
	// LiveShardedEngine whose mutable tail seals into an immutable static
	// shard every LiveShardedSealRows records. SealedRowsPerAppend is the
	// freeze amortization (each row is frozen into a static index exactly
	// once, so it converges to 1); IndexedRowsPerAppend additionally counts
	// the tail forest's incremental chunk-tree work, bounded by
	// O(log SealRows) + 1 regardless of stream length — the number the
	// lifecycle exists to keep flat. The steady query runs over the full
	// sealed+tail epoch and is alloc-gated like the plain live steady query.
	LiveShardedSealRows             int     `json:"livesharded_seal_rows"`
	LiveShardedAppendsPerSec        float64 `json:"livesharded_appends_per_sec"`
	LiveShardedSeals                int     `json:"livesharded_seals"`
	LiveShardedSealedRowsPerAppend  float64 `json:"livesharded_sealed_rows_per_append"`
	LiveShardedIndexedRowsPerAppend float64 `json:"livesharded_indexed_rows_per_append"`
	LiveShardedSteadyQueryNs        float64 `json:"livesharded_steady_query_ns"`
	LiveShardedSteadyQueryAllocs    int64   `json:"livesharded_steady_query_allocs"`
	LiveShardedSteadyQueryBytes     int64   `json:"livesharded_steady_query_bytes"`

	// Compaction: the same stream under a deliberately fine seal cadence
	// (CompactSealRows, ~64 level-0 shards per run) ingested twice — once
	// with background size-tiered compaction (CompactFanout) and once
	// without. The shard counts are the headline: without compaction the
	// live set grows linearly with the seal count; with it the LSM leveling
	// holds it at O(fanout · log n). VisitedShards counts the shards whose
	// row range intersects the steady query's window reach — the shards its
	// span's probes merge — and the steady-query ns/allocs pairs price that
	// walk with and without compaction.
	CompactSealRows          int     `json:"compact_seal_rows,omitempty"`
	CompactFanout            int     `json:"compact_fanout,omitempty"`
	Compactions              int     `json:"compactions,omitempty"`
	CompactMaxLevel          int     `json:"compact_max_level,omitempty"`
	CompactShards            int     `json:"compact_shards,omitempty"`
	CompactShardsBaseline    int     `json:"compact_shards_baseline,omitempty"`
	CompactVisitedShards     int     `json:"compact_visited_shards,omitempty"`
	CompactVisitedBaseline   int     `json:"compact_visited_shards_baseline,omitempty"`
	CompactAppendsPerSec     float64 `json:"compact_appends_per_sec,omitempty"`
	CompactSteadyQueryNs     float64 `json:"compact_steady_query_ns,omitempty"`
	CompactSteadyQueryAllocs int64   `json:"compact_steady_query_allocs,omitempty"`
	CompactSteadyQueryBytes  int64   `json:"compact_steady_query_bytes,omitempty"`
	CompactBaselineQueryNs   float64 `json:"compact_baseline_steady_query_ns,omitempty"`

	// RecoveryReplayRowsPerSec is how fast Open replays a checkpoint-free
	// tail WAL through the normal append path (the cold-restart cost per
	// un-checkpointed row). The store runs on an in-memory filesystem, so
	// the rate isolates replay's decoding and appending, not the device.
	RecoveryReplayRowsPerSec float64 `json:"recovery_replay_rows_per_sec,omitempty"`
}

// streamSection measures one group of BENCH_stream.json rows into rep. s is
// the report's random preference scorer and spec its query shape.
type streamSection func(rep *StreamReport, ds *data.Dataset, spec QuerySpec, s score.Scorer) error

// allStreamSections is every section of BENCH_stream.json, in report order.
var allStreamSections = []streamSection{liveRows, liveShardedRows, compactionLifecycle, recoveryReplayRows}

// StreamPerfReport measures the given sections of the live-ingestion report
// on the named dataset; the registry experiments each run the one section
// they print, WriteStreamJSON runs allStreamSections.
func StreamPerfReport(cfg Config, dsName string, sections ...streamSection) (*StreamReport, error) {
	cfg = cfg.withDefaults()
	ds, err := DatasetFor(cfg, dsName)
	if err != nil {
		return nil, err
	}
	spec := QuerySpec{K: defaultK, TauPct: defaultTauPct, IPct: defaultIPct}
	rep := &StreamReport{
		Dataset: dsName, Records: ds.Len(), Dims: ds.Dims(),
		K: spec.K, TauPct: spec.TauPct,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,
	}
	s := RandomPreference(rand.New(rand.NewSource(cfg.Seed)), ds.Dims())
	for _, section := range sections {
		if err := section(rep, ds, spec, s); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// liveRows fills the plain live-engine rows: pure ingest throughput and
// rebuild amortization, interleaved append+query freshness, and the steady
// live query.
func liveRows(rep *StreamReport, ds *data.Dataset, spec QuerySpec, s score.Scorer) error {
	n, d := ds.Len(), ds.Dims()
	le, err := core.NewLiveEngine(d, EngineOptions(), core.LiveOptions{})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			return err
		}
	}
	elapsed := time.Since(start).Seconds()
	rep.AppendsPerSec = float64(n) / elapsed
	rep.Rebuilds = le.Rebuilds()
	rep.IndexedRowsPerAppend = float64(le.IndexedRows()) / float64(n)

	// Interleaved append+query: one trailing-window durable top-k per
	// append, measuring how fresh answers stay while the stream runs.
	le2, err := core.NewLiveEngine(d, EngineOptions(), core.LiveOptions{})
	if err != nil {
		return err
	}
	lo, hi := ds.Span()
	tau := (hi - lo) * int64(spec.TauPct) / 100
	var queryNs int64
	start = time.Now()
	for i := 0; i < n; i++ {
		t := ds.Time(i)
		if _, _, err := le2.Append(t, ds.Attrs(i)); err != nil {
			return err
		}
		qs := time.Now()
		if _, err := le2.DurableTopK(core.Query{
			K: spec.K, Tau: tau, Start: t - tau, End: t, Scorer: s, Algorithm: core.SHop,
		}); err != nil {
			return err
		}
		queryNs += time.Since(qs).Nanoseconds()
	}
	rep.IngestWithQueriesPerSec = float64(n) / time.Since(start).Seconds()
	rep.FreshnessLagNs = float64(queryNs) / float64(n)

	// Steady state: the batch-comparable query workload over the fully
	// ingested live engine, measured with allocation accounting so the
	// benchmark gate can fail on per-query allocation growth.
	r, err := steadyQuery(le, spec.Materialize(le.Dataset(), s, core.SHop))
	rep.SteadyQueryNs, rep.SteadyQueryAllocs, rep.SteadyQueryBytes = float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp()
	return err
}

// steadyQuery benchmarks q repeated against eng with no appends in between.
func steadyQuery(eng core.Querier, q core.Query) (testing.BenchmarkResult, error) {
	var evalErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.DurableTopK(q); err != nil {
				evalErr = err
				b.FailNow()
			}
		}
	})
	return r, evalErr
}

// liveSealRows is the seal cadence of the live+sharded rows: eight
// seals across the stream.
func liveSealRows(n int) int {
	return max(n/8, 1)
}

// liveShardedRows fills the live+sharded lifecycle rows: the same ingest
// through the seal/freeze engine, then the steady query over the resulting
// sealed+tail epoch.
func liveShardedRows(rep *StreamReport, ds *data.Dataset, spec QuerySpec, s score.Scorer) error {
	n, d := ds.Len(), ds.Dims()
	sealRows := liveSealRows(n)
	rep.LiveShardedSealRows = sealRows
	lse, err := core.NewLiveShardedEngine(d, EngineOptions(), core.LiveOptions{Capacity: sealRows},
		core.LiveShardOptions{SealRows: sealRows})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
			return err
		}
	}
	// Freeze builds run in the background; include their completion in the
	// measured window so the amortization constants cover the whole
	// lifecycle, not just the appender's side of it.
	lse.WaitSealed()
	rep.LiveShardedAppendsPerSec = float64(n) / time.Since(start).Seconds()
	rep.LiveShardedSeals = lse.Seals()
	rep.LiveShardedSealedRowsPerAppend = float64(lse.SealedRows()) / float64(n)
	rep.LiveShardedIndexedRowsPerAppend = float64(lse.IndexedRows()) / float64(n)

	r, err := steadyQuery(lse, spec.Materialize(lse.Dataset(), s, core.SHop))
	rep.LiveShardedSteadyQueryNs, rep.LiveShardedSteadyQueryAllocs, rep.LiveShardedSteadyQueryBytes =
		float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp()
	return err
}

// recoveryReplayRows fills the recovery replay rate: a WAL holding the full
// stream (the seal threshold sits beyond the dataset, so no checkpoint
// short-circuits the replay) driven back through the normal append path at
// Open.
func recoveryReplayRows(rep *StreamReport, ds *data.Dataset, _ QuerySpec, _ score.Scorer) error {
	n, d := ds.Len(), ds.Dims()
	ropts := store.Options{FS: wal.NewMemFS(), Sync: wal.SyncNone,
		Engine: EngineOptions(), Shard: core.LiveShardOptions{SealRows: n + 1}}
	st, err := store.Open("replay", d, ropts)
	if err != nil {
		return err
	}
	if err := feedStore(st, ds); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	rec, err := store.Open("replay", d, ropts)
	if err != nil {
		return err
	}
	recoverSecs := time.Since(start).Seconds()
	if replayed := rec.Stats().ReplayedRows; replayed != n {
		return fmt.Errorf("bench: recovery replayed %d of %d rows", replayed, n)
	}
	rep.RecoveryReplayRowsPerSec = float64(n) / recoverSecs
	return rec.Close()
}

// compactFanout is the size-tiered merge fanout of the compaction rows:
// wide enough that levels are visibly larger than their constituents, small
// enough that a 64-seal run climbs several levels.
const compactFanout = 4

// compactionLifecycle fills the compaction rows of the stream report: the
// same stream ingested under a fine seal cadence twice — once without
// compaction (the linearly growing baseline) and once with background LSM
// leveling — then the same trailing steady query over both final epochs.
func compactionLifecycle(rep *StreamReport, ds *data.Dataset, spec QuerySpec, s score.Scorer) error {
	n, d := ds.Len(), ds.Dims()
	sealRows := n / 64
	if sealRows < 1 {
		sealRows = 1
	}
	rep.CompactSealRows = sealRows
	rep.CompactFanout = compactFanout

	build := func(fanout int) (*core.LiveShardedEngine, float64, error) {
		lse, err := core.NewLiveShardedEngine(d, EngineOptions(), core.LiveOptions{Capacity: sealRows},
			core.LiveShardOptions{SealRows: sealRows, CompactFanout: fanout})
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			if _, _, err := lse.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				return nil, 0, err
			}
		}
		// Include the background freeze and merge work in the window: the
		// rate prices the whole lifecycle, not just the appender's half.
		lse.WaitSealed()
		lse.WaitCompacted()
		return lse, float64(n) / time.Since(start).Seconds(), nil
	}
	steady := func(lse *core.LiveShardedEngine, q core.Query) (ns float64, allocs, bytes int64, err error) {
		r, err := steadyQuery(lse, q)
		return float64(r.NsPerOp()), r.AllocsPerOp(), r.AllocedBytesPerOp(), err
	}
	// visited counts the shards whose rows a look-back query over [Start-Tau,
	// End] can touch: the shards its span covers in the final epoch.
	visited := func(lse *core.LiveShardedEngine, q core.Query) int {
		count := 0
		for _, in := range lse.Shards() {
			if in.End >= q.Start-q.Tau && in.Start <= q.End {
				count++
			}
		}
		return count
	}

	base, _, err := build(0)
	if err != nil {
		return err
	}
	q := spec.Materialize(base.Dataset(), s, core.SHop)
	rep.CompactShardsBaseline = base.NumShards()
	rep.CompactVisitedBaseline = visited(base, q)
	rep.CompactBaselineQueryNs, _, _, err = steady(base, q)
	if err != nil {
		return err
	}

	lse, perSec, err := build(compactFanout)
	if err != nil {
		return err
	}
	rep.CompactAppendsPerSec = perSec
	rep.Compactions = lse.Compactions()
	rep.CompactMaxLevel = lse.MaxLevel()
	rep.CompactShards = lse.NumShards()
	rep.CompactVisitedShards = visited(lse, q)
	rep.CompactSteadyQueryNs, rep.CompactSteadyQueryAllocs, rep.CompactSteadyQueryBytes, err = steady(lse, q)
	return err
}

// runCompactionScale is the registry experiment behind `durbench
// -exp compaction`: the compaction rows of BENCH_stream.json as a table.
func runCompactionScale(cfg Config, w io.Writer) error {
	dsName := "nba-2"
	if cfg.Quick {
		dsName = "ind-4000"
	}
	rep, err := StreamPerfReport(cfg, dsName, compactionLifecycle)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset=%s n=%d d=%d | seal every %d rows | fanout=%d | GOMAXPROCS=%d seed=%d\n",
		rep.Dataset, rep.Records, rep.Dims, rep.CompactSealRows, rep.CompactFanout, rep.GOMAXPROCS, rep.Seed)
	fmt.Fprintf(w, "%-34s %12d %12d\n", "live shards (without / with)", rep.CompactShardsBaseline, rep.CompactShards)
	fmt.Fprintf(w, "%-34s %12d %12d\n", "query-visited shards (w/o / with)", rep.CompactVisitedBaseline, rep.CompactVisitedShards)
	fmt.Fprintf(w, "%-34s %12.0f %12.0f\n", "steady query ns (without / with)", rep.CompactBaselineQueryNs, rep.CompactSteadyQueryNs)
	fmt.Fprintf(w, "%-34s %25d\n", "compactions", rep.Compactions)
	fmt.Fprintf(w, "%-34s %25d\n", "max level", rep.CompactMaxLevel)
	fmt.Fprintf(w, "%-34s %25.0f\n", "appends/s (compacting lifecycle)", rep.CompactAppendsPerSec)
	fmt.Fprintf(w, "%-34s %25d\n", "steady query allocs (with)", rep.CompactSteadyQueryAllocs)
	fmt.Fprintln(w, "\nexpected: without compaction the shard count equals the seal count (linear"+
		"\nin stream length); with it the count stays O(fanout * log n), shrinking the"+
		"\nshard walk every probe of a windowed query pays")
	return nil
}

// feedStore appends the whole dataset in 256-row group commits.
func feedStore(st *store.Store, ds *data.Dataset) error {
	const batchRows = 256
	n := ds.Len()
	batch := make([]store.Row, 0, batchRows)
	for i := 0; i < n; i++ {
		batch = append(batch, store.Row{T: ds.Time(i), Attrs: ds.Attrs(i)})
		if len(batch) == batchRows || i == n-1 {
			if _, _, _, err := st.AppendBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	return nil
}

// WriteStreamJSON runs every section of StreamPerfReport and writes
// BENCH_stream.json.
func WriteStreamJSON(cfg Config, dsName, path string) error {
	rep, err := StreamPerfReport(cfg, dsName, allStreamSections...)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runStreamScale is the registry experiment: the BENCH_stream.json numbers
// rendered as a table.
func runStreamScale(cfg Config, w io.Writer) error {
	dsName := "nba-2"
	if cfg.Quick {
		dsName = "ind-4000"
	}
	rep, err := StreamPerfReport(cfg, dsName, liveRows, recoveryReplayRows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset=%s n=%d d=%d | k=%d tau=%d%% | GOMAXPROCS=%d seed=%d\n",
		rep.Dataset, rep.Records, rep.Dims, rep.K, rep.TauPct, rep.GOMAXPROCS, rep.Seed)
	fmt.Fprintf(w, "%-28s %14.0f\n", "appends/s (pure ingest)", rep.AppendsPerSec)
	fmt.Fprintf(w, "%-28s %14d\n", "chunk-tree rebuilds", rep.Rebuilds)
	fmt.Fprintf(w, "%-28s %14.2f\n", "indexed rows per append", rep.IndexedRowsPerAppend)
	fmt.Fprintf(w, "%-28s %14.0f\n", "appends/s (query each row)", rep.IngestWithQueriesPerSec)
	fmt.Fprintf(w, "%-28s %14.0f\n", "freshness lag ns", rep.FreshnessLagNs)
	fmt.Fprintf(w, "%-28s %14.0f\n", "steady live query ns", rep.SteadyQueryNs)
	fmt.Fprintf(w, "%-28s %14d\n", "steady live query allocs", rep.SteadyQueryAllocs)
	fmt.Fprintf(w, "%-28s %14.0f\n", "recovery replay rows/s", rep.RecoveryReplayRowsPerSec)
	fmt.Fprintln(w, "\nexpected: indexed rows per append stays O(log n); freshness lag tracks a"+
		"\nsingle trailing-window query (no index rebuild on the query path); recovery"+
		"\nreplay prices a cold restart per un-checkpointed row")
	return nil
}

// runLiveShardedScale is the registry experiment behind `durbench
// -livesharded`: the seal/freeze lifecycle trajectory of BENCH_stream.json
// rendered as a table — ingest throughput through the lifecycle, the seal and
// rebuild amortization constants, and the steady sealed+tail query.
func runLiveShardedScale(cfg Config, w io.Writer) error {
	dsName := "nba-2"
	if cfg.Quick {
		dsName = "ind-4000"
	}
	rep, err := StreamPerfReport(cfg, dsName, liveRows, liveShardedRows)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset=%s n=%d d=%d | k=%d tau=%d%% | seal every %d rows | GOMAXPROCS=%d seed=%d\n",
		rep.Dataset, rep.Records, rep.Dims, rep.K, rep.TauPct, rep.LiveShardedSealRows, rep.GOMAXPROCS, rep.Seed)
	fmt.Fprintf(w, "%-32s %14.0f\n", "appends/s (seal lifecycle)", rep.LiveShardedAppendsPerSec)
	fmt.Fprintf(w, "%-32s %14d\n", "seals (tail freezes)", rep.LiveShardedSeals)
	fmt.Fprintf(w, "%-32s %14.2f\n", "sealed rows per append", rep.LiveShardedSealedRowsPerAppend)
	fmt.Fprintf(w, "%-32s %14.2f\n", "indexed rows per append", rep.LiveShardedIndexedRowsPerAppend)
	fmt.Fprintf(w, "%-32s %14.0f\n", "steady sealed+tail query ns", rep.LiveShardedSteadyQueryNs)
	fmt.Fprintf(w, "%-32s %14d\n", "steady sealed+tail query allocs", rep.LiveShardedSteadyQueryAllocs)
	fmt.Fprintf(w, "(plain live engine for comparison: %0.f appends/s, %0.f steady ns, %d allocs)\n",
		rep.AppendsPerSec, rep.SteadyQueryNs, rep.SteadyQueryAllocs)
	fmt.Fprintln(w, "\nexpected: sealed rows per append converges to 1 (each row frozen once) and"+
		"\nindexed rows per append to O(log seal_rows) + 1 — flat in stream length,"+
		"\nunlike a monolithic live forest whose merge cascades keep growing")
	return nil
}
