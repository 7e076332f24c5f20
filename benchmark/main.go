// Command benchmark measures the whole served stack from the outside: it
// assembles what cmd/durserved assembles, drives it over loopback TCP through
// wire.Client, checks the answers, and reports end-to-end metrics (tracing
// off) or a per-layer budget (tracing on). See README.md.
//
//	bash benchmark/run.sh --workload explore_cold --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload all --seed 1
//	bash benchmark/run.sh --workload ingest_durable --repeat 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/serve"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics with their units and the share of
// the parent's median by which each may worsen, as BENCHMARK.json fixes them.
var endToEnd = []struct {
	name, unit string
	higher     bool
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"query_per_s", "1/s", true, 0.25},
	{"query_p50_ms", "ms", false, 0.25},
	{"query_p99_ms", "ms", false, 0.25},
	{"append_rows_per_s", "1/s", true, 0.25},
	{"append_ack_p50_ms", "ms", false, 0.25},
	{"append_ack_p99_ms", "ms", false, 0.25},
	{"event_lag_p50_ms", "ms", false, 0.25},
	{"event_lag_p99_ms", "ms", false, 0.25},
	{"heap_mb", "MiB", false, 0.25},
}

func (o *outcome) queriesPerSec() float64 {
	return ratio(float64(len(o.queryMs)), o.querying.Seconds())
}
func (o *outcome) rowsPerSec() float64 { return ratio(float64(o.rows), o.appending.Seconds()) }

// pass is one set-up, one measured window and its verification.
type pass struct {
	o      *outcome
	setupS []float64

	// The serving tier before and after the window.
	cache0, cache1 serve.CacheStats
	sched0, sched1 serve.SchedulerMetrics
	queuedMax      int64

	// Traced passes only.
	spans         []span
	queries       queryStats
	walIO, ckptIO ioCounts
}

// runPass sets the workload up cfg.setups times (the last one is measured),
// runs the window and verifies it. With after != nil the workload is handed
// to it before being torn down.
func runPass(def workloadDef, cfg *config, tr *tracer, after func(*pass, workload)) (*pass, error) {
	p := &pass{}
	for i := 0; ; i++ {
		w := def.make(cfg, tr)
		t0 := time.Now()
		err := w.setup()
		p.setupS = append(p.setupS, time.Since(t0).Seconds())
		if err != nil || i < cfg.setups-1 {
			if cerr := w.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
			}
			continue
		}
		st := w.stack()
		logged := st.logged.Load()
		p.cache0, p.sched0 = st.cache.Stats(), st.sched.Metrics()
		stop := make(chan struct{})
		watched := watch(st.sched, stop)
		if tr != nil {
			tr.on.Store(true)
		}
		w.run(time.Now().Add(cfg.window))
		if tr != nil {
			tr.on.Store(false)
		}
		close(stop)
		seen := <-watched
		p.queuedMax = seen.queuedMax
		p.cache1, p.sched1 = st.cache.Stats(), st.sched.Metrics()
		heap := median(seen.heapMB)
		if heap == 0 { // a window too short for a collection
			heap = liveHeapMB()
		}
		p.o = w.verify()
		p.o.heapMB = heap
		p.o.fail(int(st.logged.Load()-logged), "the server logged %d connection errors", st.logged.Load()-logged)
		if tr != nil {
			p.spans, p.queries = tr.snapshot(), tr.queries
			if st.fs != nil {
				p.walIO, p.ckptIO = st.fs.counts()
			}
		}
		if after != nil {
			after(p, w)
		}
		return p, w.close()
	}
}

// sightings is what watch saw over a window.
type sightings struct {
	queuedMax int64
	heapMB    []float64
}

// watch samples, every 100 ms until stop closes, the scheduler's queue depth
// and the live heap: the bytes the last completed collection found reachable,
// which the runtime keeps anyway, so reading it disturbs nothing. The median
// over the window is steadier than one forced collection at its end, where
// the heap is wherever the seal/compaction cycle and the lazily built
// per-shard structures happen to be.
func watch(sched *serve.Scheduler, stop <-chan struct{}) <-chan sightings {
	out := make(chan sightings, 1)
	go func() {
		var seen sightings
		live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				seen.queuedMax = max(seen.queuedMax, sched.Metrics().Queued)
				if metrics.Read(live); live[0].Value.Kind() == metrics.KindUint64 {
					seen.heapMB = append(seen.heapMB, float64(live[0].Value.Uint64())/(1<<20))
				}
			case <-stop:
				out <- seen
				return
			}
		}
	}()
	return out
}

// endToEndMetrics turns an untraced pass into the end-to-end metrics.
func endToEndMetrics(p *pass) map[string]metric {
	o := p.o
	q, a, l := sortedCopy(o.queryMs), sortedCopy(o.ackMs), sortedCopy(o.lagMs)
	v := map[string]float64{
		"setup_s":           median(p.setupS),
		"query_per_s":       o.queriesPerSec(),
		"query_p50_ms":      percentile(q, 0.5),
		"query_p99_ms":      percentile(q, 0.99),
		"append_rows_per_s": o.rowsPerSec(),
		"append_ack_p50_ms": percentile(a, 0.5),
		"append_ack_p99_ms": percentile(a, 0.99),
		"event_lag_p50_ms":  percentile(l, 0.5),
		"event_lag_p99_ms":  percentile(l, 0.99),
		"heap_mb":           o.heapMB,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		out[e.name] = metric{Value: v[e.name], Unit: e.unit}
	}
	return out
}

// report is everything one run of one workload says besides its result.
type report struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Env      map[string]any `json:"env"`
	// Samples are the sample counts behind the percentiles; ThinTails names
	// the streams whose p99 has fewer than 10 samples beyond it.
	Samples     map[string]int `json:"samples"`
	ThinTails   []string       `json:"thin_tails,omitempty"`
	FailedRatio float64        `json:"failed_ops_ratio"`
	Problems    []string       `json:"problems,omitempty"`
	Result      *result        `json:"result,omitempty"`
}

func environment() map[string]any {
	env := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"go": runtime.Version(), "commit": "unknown", "fsync": "interval",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// runWorkload runs one workload once, untraced or traced, and reports.
func runWorkload(def workloadDef, cfg config, traced bool, spansPath string) (*report, error) {
	rep := &report{Workload: def.name, Seed: cfg.seed, Seconds: cfg.window.Seconds(), Env: environment(), Result: &result{}}
	var p *pass
	var err error
	if !traced {
		if p, err = runPass(def, &cfg, nil, nil); err != nil {
			return nil, err
		}
		rep.Result.Metrics = endToEndMetrics(p)
	} else {
		// A short untraced pass first, then the traced one: their difference
		// is what tracing cost.
		rep.Trace = 1
		short := cfg
		short.setups, short.window = 1, cfg.window/3
		ref, err := runPass(def, &short, nil, nil)
		if err != nil {
			return nil, err
		}
		short.window = cfg.window - short.window
		p, err = runPass(def, &short, newTracer(), func(p *pass, w workload) {
			values := computeLayers(w.layers(), p, ref, cfg.layerReps)
			rep.Result.Metrics = make(map[string]metric, len(values))
			for _, n := range perLayerNames {
				rep.Result.Metrics[n[0]] = metric{Value: values[n[0]], Unit: n[1]}
			}
		})
		if err != nil {
			return nil, err
		}
		p.o.failed += ref.o.failed
		p.o.attempted += ref.o.attempted
		p.o.problems = append(p.o.problems, ref.o.problems...)
		if spansPath != "" {
			header := map[string]any{"workload": def.name, "seed": cfg.seed, "env": rep.Env, "self_ms": selfTimes(p.spans)}
			if err := writeSpans(spansPath, header, p.spans); err != nil {
				return nil, err
			}
		}
	}
	o := p.o
	rep.Samples = map[string]int{"query": len(o.queryMs), "append_ack": len(o.ackMs), "event_lag": len(o.lagMs)}
	for _, stream := range []string{"query", "append_ack", "event_lag"} {
		if rep.Samples[stream] < minTailSamples {
			rep.ThinTails = append(rep.ThinTails, stream)
		}
	}
	rep.Problems = o.problems
	rep.FailedRatio = ratio(float64(o.failed), float64(o.attempted))
	rep.Result.Attempted, rep.Result.Failed = max(o.attempted, 1), o.failed
	rep.Result.Correct = o.failed == 0 && finite(rep.Result.Metrics)
	return rep, nil
}

func finite(ms map[string]metric) bool {
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return false
		}
	}
	return true
}

// repeatWorkload reruns a workload n times with consecutive seeds and
// summarises every end-to-end metric: the tool for paired parent/change runs.
func repeatWorkload(def workloadDef, cfg config, n int) error {
	values := make(map[string][]float64)
	failed := 0
	for i := 0; i < n; i++ {
		c := cfg
		c.seed = cfg.seed + int64(i)
		rep, err := runWorkload(def, c, false, "")
		if err != nil {
			return err
		}
		failed += rep.Result.Failed
		for name, m := range rep.Result.Metrics {
			values[name] = append(values[name], m.Value)
		}
		line := fmt.Sprintf("%s seed %d: failed %d", def.name, c.seed, rep.Result.Failed)
		for _, e := range endToEnd {
			line += fmt.Sprintf(" %s=%.5g", e.name, rep.Result.Metrics[e.name].Value)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	fmt.Printf("%s: %d runs from seed %d, %gs windows, failed ops %d\n", def.name, n, cfg.seed, cfg.window.Seconds(), failed)
	fmt.Printf("%-20s %-5s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
	for _, e := range endToEnd {
		q1, q2, q3 := quartiles(values[e.name])
		s, mark := spread(values[e.name]), ""
		switch {
		case s > e.bound:
			mark = "  > bound"
		case s > e.bound/3:
			mark = "  > bound/3"
		}
		fmt.Printf("%-20s %-5s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n", e.name, e.unit, q1, q2, q3, s, e.bound, mark)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func main() {
	cfg := defaultConfig()
	name := flag.String("workload", "all", "workload to run: all, or one of "+fmt.Sprint(workloadNames()))
	seconds := flag.Float64("seconds", cfg.window.Seconds(), "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced pass")
	spans := flag.String("spans", "", "with -trace 1, write the spans to this file (one JSON object per line)")
	repeat := flag.Int("repeat", 0, "rerun the workload this many times with consecutive seeds and summarise the spread of each end-to-end metric")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the generated data and request streams")
	flag.StringVar(&cfg.scratch, "scratch", cfg.scratch, "directory for the store's files (created, and emptied afterwards)")
	flag.Parse()
	cfg.window = time.Duration(*seconds * float64(time.Second))
	if err := run(cfg, *name, *trace == 1, *spans, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, d := range workloadDefs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func run(cfg config, name string, traced bool, spans string, repeat int) error {
	if cfg.window <= 0 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (window %v, extra %v)", cfg.window, flag.Args())
	}
	enc := json.NewEncoder(os.Stdout)
	if name == "all" {
		// Both passes of every workload, as one JSON document.
		doc := map[string]any{"env": environment(), "seed": cfg.seed}
		var all []*report
		failed := 0
		for _, def := range workloadDefs {
			for _, tr := range []bool{false, true} {
				rep, err := runWorkload(def, cfg, tr, "")
				if err != nil {
					return err
				}
				failed += rep.Result.Failed
				all = append(all, rep)
			}
		}
		doc["runs"] = all
		enc.SetIndent("", " ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
		if failed > 0 {
			return fmt.Errorf("%d operations failed", failed)
		}
		return nil
	}
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want all or one of %v)", name, workloadNames())
	}
	if repeat > 0 {
		return repeatWorkload(def, cfg, repeat)
	}
	rep, err := runWorkload(def, cfg, traced, spans)
	if err != nil {
		return err
	}
	res := rep.Result
	rep.Result = nil
	info, _ := json.Marshal(rep)
	fmt.Fprintf(os.Stderr, "%s\n", info)
	return enc.Encode(res)
}
