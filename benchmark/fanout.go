package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/wire"
)

const (
	fanoutBatch   = 8
	fanoutScorers = 16
	fanoutK       = 10
	// fanoutRecent is how far back (in ticks) the producer's queries reach:
	// about 4096 rows.
	fanoutRecent = 6144
)

// fanoutTaus are the window lengths, in ticks, of the standing queries.
var fanoutTaus = []int64{64, 256, 1024, 4096}

// fanout is the append path without a disk: 64 standing queries (16 scoring
// functions × 4 window lengths) on one follower connection, and a producer
// that sends its next 8-row batch only once the follower holds every event of
// the last — 512 per batch, which stays under the server's per-connection
// event queue, so nothing is ever evicted. After each batch the producer also
// asks for the durable top-k of the recent rows, as a dashboard would.
type fanout struct {
	cfg *config
	tr  *tracer

	st      *stack
	ticks   *core.LiveEngine
	ex      *explorer
	prod    *producer
	fol     *follower
	gen     *queryGen
	before  liveStats
	elapsed time.Duration
}

func (w *fanout) setup() (err error) {
	cfg := w.cfg
	w.st = newStack(w.tr)
	if w.ticks, err = w.st.addLive("ticks"); err != nil {
		return err
	}
	if err = w.st.listen(); err != nil {
		return err
	}
	pc, err := w.st.dial(false)
	if err != nil {
		return err
	}
	fc, err := w.st.dial(true)
	if err != nil {
		return err
	}
	w.prod = newProducer(w.st, pc, "ticks", newRowGen(cfg.seed), 0, fanoutBatch)
	w.prod.keep = true // the monitor oracle replays them
	w.ex = newExplorer(w.st, pc, cfg)
	w.fol = newFollower(w.st, fc, w.prod.ring, 1<<15)
	sgen := newQueryGen(cfg.seed*31, "ticks")
	for i := 0; i < fanoutScorers; i++ {
		weights, src, _ := sgen.scorer()
		for j, tau := range fanoutTaus {
			// Four subscriptions spread over scorers and windows keep every
			// decision, for comparison with a local monitor.
			n := i*len(fanoutTaus) + j
			keep := n%21 == 0
			if err = w.fol.subscribe(standingReq("ticks", fanoutK, tau, weights, src), keep); err != nil {
				return err
			}
		}
	}
	w.gen = newQueryGen(cfg.seed*31+1, "ticks")
	w.gen.backOnly = true
	// Long enough that every monitor's window has filled.
	for i := 0; i < cfg.warmOps*4; i++ {
		if !w.cycle(false) {
			return fmt.Errorf("warm-up stalled: %v", w.prod.firstEr)
		}
	}
	return nil
}

// cycle is one turn of the producer: append, wait for the events, query.
func (w *fanout) cycle(record bool) bool {
	var s span
	if w.tr != nil && record {
		s = span{ID: w.tr.newID(), Name: spanClientEvents, Start: w.tr.now()}
	}
	if !w.prod.appendBatch(record) {
		return false
	}
	if !w.fol.await(int64(w.prod.total*len(w.fol.subs)), 2*time.Second) {
		return false
	}
	if s.ID != 0 {
		s.Req = w.prod.lastReq
		w.tr.record(s)
	}
	hi := w.prod.rows.t
	return w.ex.query(w.gen.draw(hi-fanoutRecent, hi), record)
}

func (w *fanout) run(deadline time.Time) {
	w.before = w.counters()
	start := time.Now()
	w.fol.recording.Store(true)
	for time.Now().Before(deadline) && w.cycle(true) {
	}
	w.fol.recording.Store(false)
	w.elapsed = time.Since(start)
}

func (w *fanout) counters() liveStats {
	return liveStats{rebuilds: w.ticks.Rebuilds(), indexed: w.ticks.IndexedRows(), rows: w.ticks.Len()}
}

// scorerOf compiles the scoring function a request names, as the server does.
func scorerOf(req *wire.Request) score.Scorer {
	if len(req.Weights) > 0 {
		return score.MustLinear(req.Weights...)
	}
	return expr.MustCompile(req.Expr, expr.Options{Dims: dims, Names: attrNames})
}

func (w *fanout) verify() *outcome {
	o := &outcome{querying: w.elapsed, appending: w.elapsed}
	o.addExplorer(w.ex)
	o.addProducer(w.prod)
	o.fail(btoi(w.fol.stop() != nil), "unsubscribe failed")
	o.addFollower(w.fol, w.prod.total)
	for _, st := range w.fol.subs {
		if !st.keep {
			continue
		}
		mon, err := monitor.New(st.req.K, st.req.Tau, scorerOf(&st.req), monitor.Options{})
		if err != nil {
			o.fail(1, "local monitor: %v", err)
			continue
		}
		bad := abs(len(st.decisions) - len(w.prod.kept))
		for i, row := range w.prod.kept[:min(len(w.prod.kept), len(st.decisions))] {
			want, _, err := mon.Observe(row.Time, row.Attrs)
			got := st.decisions[i]
			if err != nil || got.ID != want.ID || got.Time != want.Time || got.Durable != want.Durable || got.Rank != want.Rank {
				bad++
			}
		}
		o.attempted += len(w.prod.kept)
		o.fail(bad, "subscription %d: %d decisions differ from a local monitor", st.sub.ID(), bad)
	}
	return o
}

func (w *fanout) layers() *layerInputs {
	ds := w.ticks.Dataset()
	gen := newQueryGen(w.cfg.seed+977, "ticks")
	gen.backOnly = true
	rng := rand.New(rand.NewSource(w.cfg.seed))
	_, hi := ds.Span()
	return &layerInputs{
		ds: ds, eng: w.ticks,
		explorers: []*explorer{w.ex}, prod: w.prod, fol: w.fol,
		sample: func() *query {
			end := hi - rng.Int63n(max(hi-fanoutRecent, 1))
			return gen.draw(end-fanoutRecent, end)
		},
		newTarget:   func() (appendTarget, error) { return core.NewLiveEngine(dims, engOpts, core.LiveOptions{}) },
		appendsLead: true, before: w.before, after: w.counters(),
	}
}

func (w *fanout) stack() *stack { return w.st }
func (w *fanout) close() error  { return w.st.close() }
