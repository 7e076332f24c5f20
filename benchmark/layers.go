package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	durable "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/serve"
	"repro/internal/sub"
	"repro/internal/topk"
	"repro/internal/wal"
	"repro/internal/wire"
)

// appendTarget is a WAL-less engine the window's rows are replayed into.
type appendTarget interface {
	Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error)
}

// liveStats are the lifecycle counters of the workload's live engine.
type liveStats struct {
	seals, compactions, shards, rebuilds, indexed, rows int
}

// storeInputs describe the closed store directory the window left behind.
type storeInputs struct {
	dir         string
	opts        durable.StoreOptions
	rows        int // acknowledged rows in the directory
	checkpoints int // seals checkpointed during the window
	waitMs      float64
	recovery    durable.RecoveryStats
}

// layerInputs is what a workload hands the per-layer timings: the very data,
// engine, queries, rows and standing queries its window used.
type layerInputs struct {
	ds        *data.Dataset // the rows queries ran on
	eng       core.Querier  // the served engine, unwrapped
	explorers []*explorer
	prod      *producer
	fol       *follower
	sample    func() *query // draws a query shaped like the workload's
	newTarget func() (appendTarget, error)
	// appendsLead marks workloads whose primary request is the append batch:
	// the wire timings then use append frames, otherwise query frames.
	appendsLead   bool
	before, after liveStats
	store         *storeInputs
}

// perLayerNames lists every per-layer metric with its unit, in the order of
// README.md. BENCHMARK.json carries the same list; a test keeps them equal.
var perLayerNames = [][2]string{
	{"core.query_ms", "ms"}, {"core.query_p99_ms", "ms"},
	{"core.check_queries_per_q", "count"}, {"core.find_queries_per_q", "count"},
	{"core.candidates_per_result", "ratio"}, {"core.visited_per_q", "count"}, {"core.shards_pruned_per_q", "count"},
	{"core.allocs_per_q", "count"}, {"core.bytes_per_q", "B"},
	{"core.tbase_ms", "ms"}, {"core.thop_ms", "ms"}, {"core.sbase_ms", "ms"}, {"core.shop_ms", "ms"}, {"core.sband_ms", "ms"},
	{"core.shop_vs_tbase", "ratio"},
	{"planner.plan_us", "us"},
	{"planner.choice_share.tbase", "ratio"}, {"planner.choice_share.thop", "ratio"}, {"planner.choice_share.sbase", "ratio"},
	{"planner.choice_share.shop", "ratio"}, {"planner.choice_share.sband", "ratio"},
	{"topk.query_us", "us"}, {"topk.build_ms_per_mrow", "ms"},
	{"score.bulk_ns_per_row", "ns"}, {"expr.compile_us", "us"}, {"expr.eval_ns_per_row", "ns"},
	{"wire.req_encode_us", "us"}, {"wire.req_decode_us", "us"}, {"wire.resp_encode_us", "us"}, {"wire.resp_decode_us", "us"},
	{"wire.req_bytes", "B"}, {"wire.resp_bytes", "B"}, {"wire.overhead_ms", "ms"},
	{"serve.cache_hit_rate", "ratio"}, {"serve.partial_hit_rate", "ratio"},
	{"serve.cache_evicted", "count"}, {"serve.cache_invalidated", "count"},
	{"serve.cache_get_us", "us"}, {"serve.cache_put_us", "us"},
	{"serve.sched_admitted", "count"}, {"serve.sched_rejected", "count"}, {"serve.sched_queued_max", "count"},
	{"wal.fsyncs_per_row", "ratio"}, {"wal.fsync_p50_us", "us"}, {"wal.fsync_p99_us", "us"}, {"wal.fsync_busy_share", "ratio"},
	{"wal.writes_per_row", "ratio"}, {"wal.bytes_per_row", "B"},
	{"wal.always_fsyncs_per_row", "ratio"}, {"wal.always_append_us_per_row", "us"},
	{"store.append_us_per_row", "us"}, {"store.checkpoints", "count"}, {"store.checkpoint_wait_ms", "ms"},
	{"store.disk_bytes_per_user_byte", "ratio"}, {"store.recover_ms", "ms"},
	{"store.recover_restored_rows", "count"}, {"store.recover_replayed_rows", "count"},
	{"pagestore.ckpt_bytes_per_row", "B"}, {"pagestore.ckpt_fsyncs", "count"},
	{"core.append_us", "us"}, {"core.seals", "count"}, {"core.compactions", "count"}, {"core.rebuilds", "count"},
	{"core.indexed_rows_per_append", "ratio"}, {"core.shards_live", "count"},
	{"sub.observe_us_per_row", "us"}, {"sub.events_per_row", "ratio"}, {"sub.groups", "count"}, {"monitor.observe_us", "us"},
	{"wire.event_encode_us", "us"}, {"wire.event_bytes", "B"}, {"wire.events_dropped", "count"}, {"wire.evictions", "count"},
	{"trace.overhead_pct", "%"},
}

// timeEach runs fn n times and returns each call's duration in the unit
// given by per (time.Microsecond → µs).
func timeEach(n int, per time.Duration, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		fn(i)
		out[i] = float64(time.Since(t0)) / float64(per)
	}
	return out
}

// computeLayers turns a traced pass into the per-layer metrics. ref is the
// short untraced pass of the same workload that precedes it.
func computeLayers(in *layerInputs, tp, ref *pass, reps int) map[string]float64 {
	m := make(map[string]float64, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n[0]] = 0
	}
	spans := tp.spans
	secs := tp.o.appending.Seconds()
	rows := float64(tp.o.rows)

	// Queries as the server's Querier saw them.
	coreMs := sortedCopy(durationsMs(spans, spanCoreQuery))
	m["core.query_ms"], m["core.query_p99_ms"] = percentile(coreMs, 0.5), percentile(coreMs, 0.99)
	qs := tp.queries
	m["core.check_queries_per_q"] = ratio(float64(qs.check), float64(qs.n))
	m["core.find_queries_per_q"] = ratio(float64(qs.find), float64(qs.n))
	m["core.candidates_per_result"] = ratio(float64(qs.candidates), float64(qs.results))
	m["core.visited_per_q"] = ratio(float64(qs.visited), float64(qs.n))
	m["core.shards_pruned_per_q"] = ratio(float64(qs.pruned), float64(qs.n))

	// The wire's share: what the client waited for beyond the spans its
	// request caused on the server.
	lead := spanClientQuery
	if in.appendsLead {
		lead = spanClientAppend
	}
	caused := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 && (s.Name == spanCoreQuery || s.Name == spanIngestAppend) {
			caused[s.Parent] += s.End - s.Start
		}
	}
	var overhead []float64
	for _, s := range spans {
		if s.Name == lead {
			overhead = append(overhead, float64(s.End-s.Start-caused[s.ID])/1e6)
		}
	}
	m["wire.overhead_ms"] = median(overhead)

	// Sampled queries of the workload's shape, replayed on one goroutine.
	queries := make([]*query, reps)
	var linear, exprs []*query
	for i := range queries {
		queries[i] = in.sample()
	}
	for len(linear) < 8 || len(exprs) < 8 {
		if q := in.sample(); q.req.Expr == "" {
			linear = append(linear, q)
		} else {
			exprs = append(exprs, q)
		}
	}
	if _, err := in.eng.DurableTopK(queries[0].coreQuery(core.Auto)); err == nil {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for _, q := range queries {
			in.eng.DurableTopK(q.coreQuery(core.Auto))
		}
		runtime.ReadMemStats(&m1)
		m["core.allocs_per_q"] = float64(m1.Mallocs-m0.Mallocs) / float64(reps)
		m["core.bytes_per_q"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
	}
	m["planner.plan_us"] = median(timeEach(reps, time.Microsecond, func(i int) {
		in.eng.Explain(queries[i].coreQuery(core.Auto))
	}))
	var answered float64
	for _, n := range tp.o.algs {
		answered += float64(n)
	}
	for _, alg := range core.Algorithms() {
		name := alg.String() // "t-base" → choice_share.tbase
		key := "planner.choice_share." + name[:1] + name[2:]
		m[key] = ratio(float64(tp.o.algs[name]), answered)
	}

	// The five strategies pinned, at the paper's defaults (k = 10, τ = 10 %,
	// |I| = 50 % of the span), on one unsharded engine over the same rows.
	lo, hi := in.ds.Span()
	span := hi - lo
	t0 := time.Now()
	idx := topk.Build(in.ds, engOpts.Index)
	m["topk.build_ms_per_mrow"] = ratio(float64(time.Since(t0))/1e6, float64(in.ds.Len())/1e6)
	one := core.NewEngine(in.ds, engOpts)
	per := max(reps/5, 4)
	for _, alg := range core.Algorithms() {
		var ms []float64
		for i := 0; i <= per; i++ {
			q := queries[i%len(queries)].coreQuery(alg)
			q.K, q.Tau, q.Anchor = 10, max(span/10, 1), core.LookBack
			q.Start = lo + (span/2)*int64(i)/int64(per+1)
			q.End = q.Start + span/2
			t0 := time.Now()
			_, err := one.DurableTopK(q)
			// The first call pays for lazily built structures; S-Band refuses
			// scoring functions it cannot prove monotone.
			if err == nil && i > 0 {
				ms = append(ms, float64(time.Since(t0))/1e6)
			}
		}
		name := alg.String()
		m["core."+name[:1]+name[2:]+"_ms"] = median(ms)
	}
	m["core.shop_vs_tbase"] = ratio(m["core.shop_ms"], m["core.tbase_ms"])

	// The building block and the scoring functions on their own.
	sc := topk.GetScratch()
	var items []topk.Item
	m["topk.query_us"] = median(timeEach(reps*5, time.Microsecond, func(i int) {
		q := queries[i%len(queries)]
		t1 := lo + span*int64(i%97)/97
		items = idx.QueryInto(q.scorer, 10, t1, t1+span/10, sc, items)
	}))
	topk.PutScratch(sc)
	n := in.ds.Len()
	dst := make([]float64, n)
	perRow := func(qs []*query) float64 {
		return median(timeEach(len(qs), time.Nanosecond, func(i int) {
			score.ScoreFlatRange(qs[i].scorer, dst, in.ds.FlatAttrs(), dims, 0, n)
		})) / float64(max(n, 1))
	}
	m["score.bulk_ns_per_row"] = perRow(linear)
	m["expr.eval_ns_per_row"] = perRow(exprs)
	m["expr.compile_us"] = median(timeEach(len(exprs), time.Microsecond, func(i int) {
		expr.Compile(exprs[i].req.Expr, expr.Options{Dims: dims, Names: attrNames})
	}))

	// Framing: the captured requests and responses, encoded and decoded
	// exactly as client and server do.
	var reqs []wire.Request
	var resps []*wire.Response
	if in.appendsLead {
		reqs, resps = in.prod.reqs, in.prod.resps
	} else {
		for _, e := range in.explorers {
			reqs, resps = append(reqs, e.reqs...), append(resps, e.resps...)
		}
	}
	m["wire.req_encode_us"], m["wire.req_decode_us"], m["wire.req_bytes"] =
		frameCosts(len(reqs), func(i int) any { return &reqs[i] }, func() any { return new(wire.Request) })
	m["wire.resp_encode_us"], m["wire.resp_decode_us"], m["wire.resp_bytes"] =
		frameCosts(len(resps), func(i int) any { return resps[i] }, func() any { return new(wire.Response) })
	events := in.fol.capture
	m["wire.event_encode_us"], _, m["wire.event_bytes"] =
		frameCosts(len(events), func(i int) any { return &events[i] }, func() any { return new(wire.Event) })
	m["wire.events_dropped"] = float64(in.fol.dropped())
	for _, st := range in.fol.subs {
		m["wire.evictions"] += float64(st.evicted)
	}

	// The serving tier over the window, and its cache on its own.
	c0, c1 := tp.cache0, tp.cache1
	m["serve.cache_hit_rate"] = ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses))
	m["serve.partial_hit_rate"] = ratio(float64(c1.PartialHits-c0.PartialHits),
		float64(c1.PartialHits-c0.PartialHits+c1.PartialMisses-c0.PartialMisses))
	m["serve.cache_evicted"] = float64(c1.Evicted - c0.Evicted)
	m["serve.cache_invalidated"] = float64(c1.Invalidated - c0.Invalidated)
	m["serve.sched_admitted"] = float64(tp.sched1.Admitted - tp.sched0.Admitted)
	m["serve.sched_rejected"] = float64(tp.sched1.Rejected - tp.sched0.Rejected)
	m["serve.sched_queued_max"] = float64(tp.queuedMax)
	cache := serve.NewCache(cacheEntries)
	keys := make([]serve.ResultKey, len(queries))
	for i, q := range queries {
		keys[i] = serve.ResultKey{Dataset: q.req.Dataset, Op: wire.OpQuery, Scorer: q.sig.Scorer,
			K: q.sig.K, Tau: q.sig.Tau, Start: q.sig.Start, End: q.sig.End, Anchor: q.anchor}
	}
	resp := &wire.Response{}
	m["serve.cache_put_us"] = median(timeEach(len(keys), time.Microsecond, func(i int) { cache.PutResult(keys[i], resp) }))
	m["serve.cache_get_us"] = median(timeEach(len(keys), time.Microsecond, func(i int) { cache.GetResult(keys[i]) }))

	// The disk, as the filesystem wrapper under the store saw it.
	w, ck := tp.walIO, tp.ckptIO
	m["wal.fsyncs_per_row"] = ratio(float64(w.fsyncs), rows)
	m["wal.writes_per_row"] = ratio(float64(w.writes), rows)
	m["wal.bytes_per_row"] = ratio(float64(w.bytes), rows)
	fsyncUs := make([]float64, len(w.fsyncNs))
	for i, ns := range w.fsyncNs {
		fsyncUs[i] = float64(ns) / 1e3
	}
	fsyncUs = sortedCopy(fsyncUs)
	m["wal.fsync_p50_us"], m["wal.fsync_p99_us"] = percentile(fsyncUs, 0.5), percentile(fsyncUs, 0.99)
	m["wal.fsync_busy_share"] = ratio(sum(fsyncUs)/1e6, secs)
	m["pagestore.ckpt_bytes_per_row"] = ratio(float64(ck.bytes), rows)
	m["pagestore.ckpt_fsyncs"] = float64(ck.fsyncs)

	if s := in.store; s != nil {
		m["store.append_us_per_row"] = median(durationsMs(spans, spanIngestAppend)) * 1e3
		m["store.checkpoints"] = float64(s.checkpoints)
		m["store.checkpoint_wait_ms"] = s.waitMs
		m["store.disk_bytes_per_user_byte"] = ratio(float64(dirBytes(s.dir)), float64(s.rows*(8+8*dims)))
		m["store.recover_restored_rows"] = float64(s.recovery.RestoredRows)
		m["store.recover_replayed_rows"] = float64(s.recovery.ReplayedRows)
		m["store.recover_ms"] = median(timeEach(3, time.Millisecond, func(int) {
			if st, err := durable.Recover(s.dir, dims, s.opts); err == nil {
				st.Close()
			}
		}))
		m["wal.always_fsyncs_per_row"], m["wal.always_append_us_per_row"] = alwaysCost(s, in.prod.kept)
	}

	// The append path without the wire or the disk: the window's rows
	// replayed into a fresh engine, a registry and a monitor.
	kept := in.prod.kept
	if target, err := in.newTarget(); err == nil && len(kept) > 0 {
		t0 := time.Now()
		for _, r := range kept {
			target.Append(r.Time, r.Attrs)
		}
		m["core.append_us"] = float64(time.Since(t0)) / 1e3 / float64(len(kept))
		if w, ok := target.(*core.LiveShardedEngine); ok { // let its background work end
			w.WaitCompacted()
			w.WaitSealed()
		}
	}
	d := in.after
	m["core.seals"] = float64(d.seals - in.before.seals)
	m["core.compactions"] = float64(d.compactions - in.before.compactions)
	m["core.rebuilds"] = float64(d.rebuilds - in.before.rebuilds)
	m["core.indexed_rows_per_append"] = ratio(float64(d.indexed-in.before.indexed), float64(d.rows-in.before.rows))
	m["core.shards_live"] = float64(d.shards)

	if len(kept) > 0 && len(in.fol.subs) > 0 {
		reg := sub.NewRegistry(0)
		emitted := 0
		for _, st := range in.fol.subs {
			spec := sub.Spec{Scorer: scorerOf(&st.req), K: st.req.K, Tau: st.req.Tau, Decisions: true}
			reg.Subscribe(spec, func(sub.Event) { emitted++ })
		}
		t0 := time.Now()
		for _, r := range kept {
			reg.Observe(r.Time, r.Attrs)
		}
		m["sub.observe_us_per_row"] = float64(time.Since(t0)) / 1e3 / float64(len(kept))
		m["sub.events_per_row"] = float64(emitted) / float64(len(kept))
		m["sub.groups"] = float64(reg.Groups())
		first := &in.fol.subs[0].req
		if mon, err := monitor.New(first.K, first.Tau, scorerOf(first), monitor.Options{}); err == nil {
			t0 := time.Now()
			for _, r := range kept {
				mon.Observe(r.Time, r.Attrs)
			}
			m["monitor.observe_us"] = float64(time.Since(t0)) / 1e3 / float64(len(kept))
		}
	}

	// What tracing itself cost, on the workload's leading throughput.
	if in.appendsLead {
		m["trace.overhead_pct"] = 100 * (1 - ratio(tp.o.rowsPerSec(), ref.o.rowsPerSec()))
	} else {
		m["trace.overhead_pct"] = 100 * (1 - ratio(tp.o.queriesPerSec(), ref.o.queriesPerSec()))
	}
	return m
}

// alwaysCost is what durserved's default policy, fsync=always, costs per row
// on this disk: up to 1000 of the window's rows appended one by one, as the
// wire path appends them, to a fresh store beside the window's. The window
// itself runs at fsync=interval (see README.md), so this is where the
// default's price stays in view.
func alwaysCost(s *storeInputs, rows []wire.IngestRow) (fsyncsPerRow, usPerRow float64) {
	rows = rows[:min(len(rows), 1000)]
	dir, err := os.MkdirTemp(filepath.Dir(s.dir), "always-")
	if err != nil || len(rows) == 0 {
		return 0, 0
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	tr.on.Store(true)
	disk := &tracedFS{FS: wal.OSFS{}, tr: tr}
	opts := s.opts
	opts.Sync, opts.FS = durable.SyncAlways, disk
	st, err := durable.Recover(dir, dims, opts)
	if err != nil {
		return 0, 0
	}
	defer st.Close()
	t0 := time.Now()
	for _, r := range rows {
		st.Append(r.Time, r.Attrs)
	}
	took := time.Since(t0)
	walIO, _ := disk.counts()
	return float64(walIO.fsyncs) / float64(len(rows)), float64(took) / 1e3 / float64(len(rows))
}

// frameCosts encodes and decodes n captured frames and returns the median
// cost of each in µs and the mean frame size, header included.
func frameCosts(n int, frame func(i int) any, blank func() any) (encUs, decUs, size float64) {
	if n == 0 {
		return 0, 0, 0
	}
	raw := make([]bytes.Buffer, n)
	enc := timeEach(n, time.Microsecond, func(i int) { wire.WriteFrame(&raw[i], frame(i)) })
	dec := timeEach(n, time.Microsecond, func(i int) {
		wire.ReadFrame(bytes.NewReader(raw[i].Bytes()), blank())
	})
	total := 0
	for i := range raw {
		total += raw[i].Len()
	}
	return median(enc), median(dec), float64(total) / float64(n)
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (total int64) {
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
