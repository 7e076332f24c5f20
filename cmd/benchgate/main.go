// Command benchgate compares freshly measured perf snapshots against the
// committed baselines and gates CI on performance regressions.
//
// Usage:
//
//	benchgate -old BENCH_topk.json -new fresh.json [-maxratio 1.3]
//	  [-oldshard BENCH_sharded.json -newshard fresh_sharded.json]
//	  [-oldstream BENCH_stream.json -newstream fresh_stream.json]
//
// Wall-clock numbers (ns_per_op, steady_query_ns) are compared with a
// generous tolerance and only ever produce warnings — CI runners differ too
// much from the hosts that committed the baselines to fail on time alone.
// Allocation counts are host-independent, so the gate is strict exactly
// where the repo's hot-path guarantees live: any probe that was
// allocation-free in the baseline and allocates in the fresh run fails the
// build, as does any other allocs_per_op increase on the strategy and probe
// rows, the sharded sweep rows, and the live engines' steady-query
// allocations. A
// baseline row that disappears from the fresh snapshot also
// fails the build: a vanished row means its hot path silently stopped being
// measured, which would let regressions land ungated. Warnings are emitted
// in GitHub Actions annotation syntax so they surface on the workflow run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func loadJSON(path string, v interface{}) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func byName(rows []bench.TopKPerf) map[string]bench.TopKPerf {
	m := make(map[string]bench.TopKPerf, len(rows))
	for _, r := range rows {
		m[r.Name] = r
	}
	return m
}

// gate accumulates the verdict across all compared snapshots.
type gate struct {
	maxRatio float64
	failed   bool
	warn     int
}

// ns compares one wall-clock number; over-tolerance drift is a warning.
func (g *gate) ns(kind, name string, old, new float64) {
	if old <= 0 {
		return
	}
	ratio := new / old
	verdict := "ok"
	if ratio > g.maxRatio {
		verdict = "SLOWER"
		fmt.Printf("::warning::benchgate: %s %q ns/op %.0f -> %.0f (%.2fx > %.2fx tolerance)\n",
			kind, name, old, new, ratio, g.maxRatio)
		g.warn++
	}
	fmt.Printf("%-10s %-14s ns/op %12.0f -> %12.0f (%.2fx, %s)\n", kind, name, old, new, ratio, verdict)
}

// throughput compares one higher-is-better rate (rows/sec); wall-clock like
// ns, so over-tolerance slowdown only warns.
func (g *gate) throughput(kind, name string, old, new float64) {
	if old <= 0 || new <= 0 {
		return
	}
	ratio := old / new // > 1 means the fresh run is slower
	verdict := "ok"
	if ratio > g.maxRatio {
		verdict = "SLOWER"
		fmt.Printf("::warning::benchgate: %s %q rows/s %.0f -> %.0f (%.2fx slower > %.2fx tolerance)\n",
			kind, name, old, new, ratio, g.maxRatio)
		g.warn++
	}
	fmt.Printf("%-10s %-14s rows/s %12.0f -> %12.0f (%.2fx, %s)\n", kind, name, old, new, ratio, verdict)
}

// missingRow fails the build for a baseline row absent from the fresh run: a
// silently vanished row means its hot path stopped being measured, which
// would let regressions land ungated. Renames must re-commit the baseline in
// the same change that renames the row.
func (g *gate) missingRow(kind, name string) {
	fmt.Printf("::error::benchgate: %s %q present in the committed baseline but missing from the fresh run; measure and re-commit the baseline if the row was intentionally removed or renamed\n", kind, name)
	g.failed = true
}

// allocs compares one allocation count; any increase fails the build.
func (g *gate) allocs(kind, name string, old, new int64) {
	fmt.Printf("%-10s %-14s allocs %d -> %d\n", kind, name, old, new)
	if new > old {
		reason := "allocs_per_op increased"
		if old == 0 {
			reason = "zero-alloc path now allocates"
		}
		fmt.Printf("::error::benchgate: %s %q %s: %d -> %d\n", kind, name, reason, old, new)
		g.failed = true
	}
}

func (g *gate) checkTopK(oldRep, newRep *bench.TopKReport) {
	if oldRep.Records != newRep.Records || oldRep.K != newRep.K || oldRep.Dataset != newRep.Dataset {
		fmt.Printf("::warning::benchgate: topk workload drifted (old %s n=%d k=%d, new %s n=%d k=%d); ns ratios are indicative only\n",
			oldRep.Dataset, oldRep.Records, oldRep.K, newRep.Dataset, newRep.Records, newRep.K)
	}
	check := func(kind string, olds, news map[string]bench.TopKPerf) {
		// Rows present only on one side are surfaced, not silently skipped:
		// a renamed or newly added probe must show up here so the baseline
		// gets re-committed rather than the strict gate quietly shrinking.
		for name := range news {
			if _, ok := olds[name]; !ok {
				fmt.Printf("::warning::benchgate: %s %q has no committed baseline row (new or renamed?); re-commit the baseline to gate it\n", kind, name)
				g.warn++
			}
		}
		for name, o := range olds {
			n, ok := news[name]
			if !ok {
				g.missingRow(kind, name)
				continue
			}
			g.ns(kind, name, o.NsPerOp, n.NsPerOp)
			g.allocs(kind, name, o.AllocsPerOp, n.AllocsPerOp)
		}
	}
	check("strategy", byName(oldRep.Strategies), byName(newRep.Strategies))
	check("probe", byName(oldRep.Probes), byName(newRep.Probes))
	if oldRep.GatherHitsPerProbe > 0 && newRep.GatherHitsPerProbe == 0 {
		fmt.Printf("::warning::benchgate: gather_hits_per_probe dropped %.1f -> 0 (gathered descent no longer exercised?)\n",
			oldRep.GatherHitsPerProbe)
		g.warn++
	}
}

func (g *gate) checkShard(oldRep, newRep *bench.ShardReport) {
	if oldRep.Records != newRep.Records || oldRep.K != newRep.K || oldRep.Dataset != newRep.Dataset {
		fmt.Printf("::warning::benchgate: sharded workload drifted; ns ratios are indicative only\n")
	}
	olds := make(map[int]bench.ShardPerf, len(oldRep.Rows))
	for _, r := range oldRep.Rows {
		olds[r.Shards] = r
	}
	news := make(map[int]bench.ShardPerf, len(newRep.Rows))
	for _, r := range newRep.Rows {
		news[r.Shards] = r
	}
	for _, o := range oldRep.Rows {
		if _, ok := news[o.Shards]; !ok {
			g.missingRow("sharded", fmt.Sprintf("shards=%d", o.Shards))
		}
	}
	for _, n := range newRep.Rows {
		o, ok := olds[n.Shards]
		if !ok {
			fmt.Printf("::warning::benchgate: sharded row shards=%d has no committed baseline; re-commit the baseline to gate it\n", n.Shards)
			g.warn++
			continue
		}
		name := fmt.Sprintf("shards=%d", n.Shards)
		g.ns("sharded", name, o.NsPerOp, n.NsPerOp)
		g.allocs("sharded", name, o.AllocsPerOp, n.AllocsPerOp)
	}
}

func (g *gate) checkStream(oldRep, newRep *bench.StreamReport) {
	if oldRep.Records != newRep.Records || oldRep.K != newRep.K || oldRep.Dataset != newRep.Dataset {
		fmt.Printf("::warning::benchgate: stream workload drifted; ns ratios are indicative only\n")
	}
	g.ns("stream", "steady-query", oldRep.SteadyQueryNs, newRep.SteadyQueryNs)
	g.allocs("stream", "steady-query", oldRep.SteadyQueryAllocs, newRep.SteadyQueryAllocs)
	// Recovery replay speed: how fast Open replays a checkpoint-free WAL.
	if g.paired("recovery-replay", oldRep.RecoveryReplayRowsPerSec > 0, newRep.RecoveryReplayRowsPerSec > 0) {
		g.throughput("stream", "recovery-replay", oldRep.RecoveryReplayRowsPerSec, newRep.RecoveryReplayRowsPerSec)
	}
	// Compaction rows: shard-count leverage is structural, timing warns.
	g.checkStreamCompact(oldRep, newRep)
	// The live+sharded lifecycle rows (absent from pre-lifecycle baselines;
	// gated once a baseline records them).
	// The freeze amortization is structural (host-independent) and needs no
	// baseline: a row can be frozen at most once, so any value beyond
	// 1 + epsilon means the seal path re-froze history and the lifecycle's
	// core guarantee broke. Checked before the baseline gating below so a
	// pre-lifecycle baseline cannot mask it.
	if newRep.LiveShardedSealRows > 0 && newRep.LiveShardedSealedRowsPerAppend > 1.001 {
		fmt.Printf("::error::benchgate: stream \"livesharded\" sealed_rows_per_append %.3f > 1: sealed history was re-frozen\n",
			newRep.LiveShardedSealedRowsPerAppend)
		g.failed = true
	}
	if g.paired("livesharded", oldRep.LiveShardedSealRows > 0, newRep.LiveShardedSealRows > 0) {
		g.ns("stream", "ls-steady", oldRep.LiveShardedSteadyQueryNs, newRep.LiveShardedSteadyQueryNs)
		g.allocs("stream", "ls-steady", oldRep.LiveShardedSteadyQueryAllocs, newRep.LiveShardedSteadyQueryAllocs)
	}
}

// paired reports whether the stream row name is in both snapshots. A row
// only the baseline has fails (missingRow); a row only the fresh run has
// warns until a baseline records it.
func (g *gate) paired(name string, oldHas, newHas bool) bool {
	switch {
	case oldHas && !newHas:
		g.missingRow("stream", name)
	case newHas && !oldHas:
		fmt.Printf("::warning::benchgate: stream %q has no committed baseline row (new?); re-commit the baseline to gate it\n", name)
		g.warn++
	}
	return oldHas && newHas
}

// checkStreamCompact gates the compaction rows. The shard-count leverage is
// structural and host-independent, so it fails outright: with a fine seal
// cadence the uncompacted baseline carries ~one shard per seal, and the
// compacted run must hold the live set strictly below half of that — the
// O(log n) bound the LSM lifecycle exists to enforce. Steady-query ns is
// wall-clock (warns), any allocation increase fails, and a vanished row fails
// like every other gated row.
func (g *gate) checkStreamCompact(oldRep, newRep *bench.StreamReport) {
	if newRep.CompactSealRows > 0 {
		if newRep.Compactions == 0 {
			fmt.Printf("::error::benchgate: stream \"compaction\" row measured %d seals but zero compactions ran\n",
				newRep.CompactShardsBaseline)
			g.failed = true
		}
		if newRep.CompactShards*2 >= newRep.CompactShardsBaseline {
			fmt.Printf("::error::benchgate: stream \"compaction\" shard count %d not below half the uncompacted %d: LSM leveling stopped bounding the live set\n",
				newRep.CompactShards, newRep.CompactShardsBaseline)
			g.failed = true
		}
		fmt.Printf("%-10s %-14s shards %d (baseline %d), visited %d (baseline %d), max level %d\n",
			"stream", "compaction", newRep.CompactShards, newRep.CompactShardsBaseline,
			newRep.CompactVisitedShards, newRep.CompactVisitedBaseline, newRep.CompactMaxLevel)
	}
	if g.paired("compaction", oldRep.CompactSealRows > 0, newRep.CompactSealRows > 0) {
		g.ns("stream", "compact-steady", oldRep.CompactSteadyQueryNs, newRep.CompactSteadyQueryNs)
		g.allocs("stream", "compact-steady", oldRep.CompactSteadyQueryAllocs, newRep.CompactSteadyQueryAllocs)
		g.throughput("stream", "compact-ingest", oldRep.CompactAppendsPerSec, newRep.CompactAppendsPerSec)
	}
}

func main() {
	var (
		oldPath   = flag.String("old", "BENCH_topk.json", "committed topk baseline snapshot")
		newPath   = flag.String("new", "", "freshly measured topk snapshot (required)")
		oldShard  = flag.String("oldshard", "", "committed sharded baseline snapshot (optional)")
		newShard  = flag.String("newshard", "", "freshly measured sharded snapshot")
		oldStream = flag.String("oldstream", "", "committed stream baseline snapshot (optional)")
		newStream = flag.String("newstream", "", "freshly measured stream snapshot")
		maxRatio  = flag.Float64("maxratio", 1.3, "ns_per_op ratio above which a warning is emitted")
	)
	flag.Parse()
	if *newPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// A half-specified snapshot pair would silently disable that gate; make
	// it a usage error instead so a CI misconfiguration cannot pass green.
	if (*oldShard == "") != (*newShard == "") {
		fmt.Fprintln(os.Stderr, "benchgate: -oldshard and -newshard must be passed together")
		os.Exit(2)
	}
	if (*oldStream == "") != (*newStream == "") {
		fmt.Fprintln(os.Stderr, "benchgate: -oldstream and -newstream must be passed together")
		os.Exit(2)
	}
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
	g := &gate{maxRatio: *maxRatio}

	var oldTopK, newTopK bench.TopKReport
	if err := loadJSON(*oldPath, &oldTopK); err != nil {
		fatal(err)
	}
	if err := loadJSON(*newPath, &newTopK); err != nil {
		fatal(err)
	}
	g.checkTopK(&oldTopK, &newTopK)

	if *oldShard != "" && *newShard != "" {
		var o, n bench.ShardReport
		if err := loadJSON(*oldShard, &o); err != nil {
			fatal(err)
		}
		if err := loadJSON(*newShard, &n); err != nil {
			fatal(err)
		}
		g.checkShard(&o, &n)
	}
	if *oldStream != "" && *newStream != "" {
		var o, n bench.StreamReport
		if err := loadJSON(*oldStream, &o); err != nil {
			fatal(err)
		}
		if err := loadJSON(*newStream, &n); err != nil {
			fatal(err)
		}
		g.checkStream(&o, &n)
	}

	switch {
	case g.failed:
		fmt.Println("benchgate: FAIL (allocation regression or vanished row on a gated hot path)")
		os.Exit(1)
	case g.warn > 0:
		fmt.Printf("benchgate: pass with %d warning(s)\n", g.warn)
	default:
		fmt.Println("benchgate: pass")
	}
}
