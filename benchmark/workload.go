package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/wire"
)

// config sizes one pass of one workload. The defaults are the benchmark;
// tests shrink them.
type config struct {
	seed    int64
	window  time.Duration // measured window
	setups  int           // times the stack is set up; setup_s is their median
	scratch string        // directory for the store's files

	rows      int // explore: records in the static dataset
	preload   int // ingest_durable: rows in the store before the window
	sealRows  int
	warmOps   int // warm-up requests per connection
	opLimit   int // when > 0, explorers stop after this many queries instead of at the deadline
	layerReps int // sample size of the direct per-layer timings
	// keepFrames makes explorers keep request and response values even with
	// tracing off (traced passes always do).
	keepFrames bool
}

func defaultConfig() config {
	return config{
		seed: 1, window: 20 * time.Second, setups: 3, scratch: ".bench_build/scratch",
		rows: 100_000, preload: 50_000, sealRows: 2048, warmOps: 100, layerReps: 200,
	}
}

// workload is one traffic mix against one assembled stack. Every workload
// carries all three kinds of traffic the system serves — queries, appends
// and standing-query events — so that every end-to-end metric is measured on
// every workload; what differs is which kind dominates and which layers it
// drives (see README.md).
type workload interface {
	// setup builds the data, assembles and starts the server, connects the
	// clients and warms everything up.
	setup() error
	// run drives the closed-loop clients until the deadline.
	run(deadline time.Time)
	// verify checks answers against the oracles and returns what happened.
	verify() *outcome
	// layers fills the workload-specific inputs of the per-layer timings.
	layers() *layerInputs
	stack() *stack
	close() error
}

type workloadDef struct {
	name string
	why  string
	make func(cfg *config, tr *tracer) workload
}

var workloadDefs = []workloadDef{
	{"explore_cold",
		"unique queries over a 100k-row 8-shard archive, larger than any cache: planner, core fan-out, topk and scoring do the work",
		func(cfg *config, tr *tracer) workload { return &explore{cfg: cfg, tr: tr} }},
	{"explore_hot",
		"Zipf draws from 256 queries that fit the result cache: the engine is bypassed, so wire framing and serve are the whole cost",
		func(cfg *config, tr *tracer) workload { return &explore{cfg: cfg, tr: tr, hot: true} }},
	{"ingest_durable",
		"64-row batches into a WAL store (fsync=interval) beside queries: wal, store, seal, compaction and checkpoints on a real disk",
		func(cfg *config, tr *tracer) workload { return &ingest{cfg: cfg, tr: tr} }},
	{"standing_fanout",
		"8-row batches against 64 standing queries, no WAL: the cost is sub.Observe, the monitors and per-event frame delivery",
		func(cfg *config, tr *tracer) workload { return &fanout{cfg: cfg, tr: tr} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// outcome is what one measured window produced.
type outcome struct {
	querying  time.Duration // how long the connections that query did so
	appending time.Duration // how long the connections that append did so
	queryMs   []float64     // query latency, every connection
	ackMs     []float64     // append acknowledgment latency, one sample per batch
	lagMs     []float64     // event lag, every subscription
	rows      int           // rows acknowledged inside the window
	attempted int
	failed    int
	problems  []string
	heapMB    float64
	algs      map[string]int
}

func (o *outcome) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if len(o.problems) < 8 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// addExplorer folds one explorer's samples and failures into o.
func (o *outcome) addExplorer(e *explorer) {
	o.queryMs = append(o.queryMs, e.ms...)
	o.attempted += e.sent
	o.fail(e.failed, "%d queries failed, first: %v", e.failed, e.firstEr)
	if o.algs == nil {
		o.algs = make(map[string]int)
	}
	for a, n := range e.algs {
		o.algs[a] += n
	}
}

func (o *outcome) addProducer(p *producer) {
	o.ackMs = append(o.ackMs, p.ms...)
	o.rows += p.acked
	o.attempted += p.sent
	o.fail(p.failed, "%d append batches failed, first: %v", p.failed, p.firstEr)
}

// addFollower folds the follower's lags in and checks that each standing
// query saw exactly one event per committed row, in order: want is the
// number of events every subscription must have received.
func (o *outcome) addFollower(f *follower, want int) {
	for _, st := range f.subs {
		o.lagMs = append(o.lagMs, st.lagMs...)
		o.attempted += want
		o.fail(st.broken, "subscription %d: %d events out of order, duplicated or evicted", st.sub.ID(), st.broken)
		if st.events != want {
			o.fail(abs(want-st.events), "subscription %d: %d events, want %d", st.sub.ID(), st.events, want)
		}
	}
	o.fail(int(f.dropped()), "client dropped %d events", f.dropped())
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// checkAnswers compares kept query answers with brute force over ds. memo
// (optional) caches the oracle per query, for streams that repeat queries.
func (o *outcome) checkAnswers(ds *data.Dataset, kept []answered, memo map[*query][]int) {
	for _, a := range kept {
		want, ok := memo[a.q]
		if !ok {
			want = core.BruteForce(ds, a.q.scorer, a.q.req.K, a.q.req.Tau, a.q.req.Start, a.q.req.End, a.q.anchor)
			if memo != nil {
				memo[a.q] = want
			}
		}
		o.attempted++
		if !sameIDs(a.recs, want) {
			o.fail(1, "wrong answer: k=%d tau=%d [%d,%d] %v: %d records, oracle has %d",
				a.q.req.K, a.q.req.Tau, a.q.req.Start, a.q.req.End, a.q.anchor, len(a.recs), len(want))
		}
	}
}

func sameIDs(recs []wire.Record, want []int) bool {
	if len(recs) != len(want) {
		return false
	}
	for i, r := range recs {
		if r.ID != want[i] {
			return false
		}
	}
	return true
}

// liveHeapMB forces a collection and returns the live heap in MiB. It
// collects twice: the first cycle only moves sync.Pool contents to the
// pools' victim caches, the second frees them.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// together runs the functions concurrently and waits for all of them.
func together(fns ...func()) {
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// The background feed of the explore workloads: one connection also appends
// an 8-row batch to a live dataset whenever tickEvery has passed, and holds
// one standing query on it.
const (
	tickEvery = 5 * time.Millisecond
	tickBatch = 8
)

// standingReq is a look-back standing query: one decision event per row.
func standingReq(dataset string, k int, tau int64, weights []float64, src string) wire.Request {
	r := wire.Request{Dataset: dataset}
	r.QuerySpec = wire.QuerySpec{K: k, Tau: tau, Anchor: "look-back", Weights: weights, Expr: src}
	return r
}
