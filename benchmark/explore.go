package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
)

// hotPool is the number of distinct queries explore_hot draws from: well
// under the result cache's 4096 entries, so the working set fits.
const (
	hotPool  = 256
	hotZipfS = 1.1
)

// feedShare is the part of an explore window spent feeding instead of
// querying: the last quarter.
const (
	feedShare = 4
	feedBatch = 8
)

// explore is the paper's use case over the wire: two connections explore an
// NBA-2 archive served from a static 8-shard engine. Cold, every query is
// unique; hot, both connections draw from a small pool and the result cache
// answers.
//
// The archive takes no appends. So that the append and event metrics exist on
// these workloads too, the last quarter of the window is a feed phase: the
// same two connections stop querying and each appends 8-row batches, closed
// loop, to a small live dataset of its own on the same server, following one
// standing query on it. Queries and appends never overlap, so neither
// disturbs the other's numbers.
type explore struct {
	cfg *config
	tr  *tracer
	hot bool

	st    *stack
	ds    *data.Dataset
	eng   core.Querier
	ticks [2]*core.LiveEngine
	next  [2]func() *query
	ex    [2]*explorer
	prod  [2]*producer
	fol   [2]*follower

	before            liveStats
	querying, feeding time.Duration
}

func (w *explore) setup() (err error) {
	cfg := w.cfg
	dataSeed := cfg.seed
	if w.hot {
		dataSeed = hotPool // see the pool below
	}
	if w.ds, err = datagen.NBASubset("nba-2", dataSeed, cfg.rows); err != nil {
		return err
	}
	w.st = newStack(w.tr)
	if w.eng, err = w.st.addStatic("games", w.ds); err != nil {
		return err
	}
	if err = w.st.listen(); err != nil {
		return err
	}
	for i := range w.ex {
		feed := fmt.Sprint("ticks", i)
		if w.ticks[i], err = w.st.addLive(feed); err != nil {
			return err
		}
		c, err := w.st.dial(true)
		if err != nil {
			return err
		}
		w.ex[i] = newExplorer(w.st, c, cfg)
		w.prod[i] = newProducer(w.st, c, feed, newRowGen(cfg.seed+int64(i)), 0, feedBatch)
		w.fol[i] = newFollower(w.st, c, w.prod[i].ring, 1<<18)
		if err = w.fol[i].subscribe(standingReq(feed, 10, 256, []float64{1, 0.5}, ""), false); err != nil {
			return err
		}
	}

	lo, hi := w.ds.Span()
	warm := [2][]*query{}
	if w.hot {
		// Every pool query is evaluated once in warm-up, so the window sees
		// only cache hits; each connection then draws by its own Zipf law.
		// A few top ranks take most of the draws and a query's answer can be
		// a handful of records or thousands: the latency distribution is a
		// few large atoms, and its median jumps when an atom moves. So the
		// pool and the archive are the same for every seed, and the seed
		// decides the order of draws (and the rows of the feed phase).
		gen := newQueryGen(hotPool, "games")
		pool := make([]*query, hotPool)
		for i := range pool {
			pool[i] = gen.draw(lo, hi)
			warm[i%2] = append(warm[i%2], pool[i])
		}
		for i := range w.next {
			z := rand.NewZipf(rand.New(rand.NewSource(cfg.seed*31+int64(i))), hotZipfS, 1, hotPool-1)
			w.next[i] = func() *query { return pool[z.Uint64()] }
		}
	} else {
		for i := range w.next {
			gen := newQueryGen(cfg.seed*31+int64(i), "games")
			w.next[i] = func() *query { return gen.draw(lo, hi) }
			// Warm-up queries come from another stream: lazily built reversed
			// views and skyband ladders get built, no measured query is cached.
			wgen := newQueryGen(-cfg.seed*31-int64(i), "games").thin(cfg.warmOps)
			for j := 0; j < cfg.warmOps; j++ {
				warm[i] = append(warm[i], wgen.draw(lo, hi))
			}
		}
	}
	w.each(func(i int) {
		for _, q := range warm[i] {
			w.ex[i].query(q, false)
		}
		for j := 0; j < cfg.warmOps; j++ {
			w.prod[i].appendBatch(false)
		}
	})
	return nil
}

// each runs fn for both connections at once.
func (w *explore) each(fn func(i int)) {
	together(func() { fn(0) }, func() { fn(1) })
}

func (w *explore) counters() (s liveStats) {
	s.shards = w.eng.(*core.ShardedEngine).NumShards()
	for _, t := range w.ticks {
		s.rebuilds += t.Rebuilds()
		s.indexed += t.IndexedRows()
		s.rows += t.Len()
	}
	return s
}

func (w *explore) run(deadline time.Time) {
	w.before = w.counters()
	start := time.Now()
	feedFrom := deadline.Add(-deadline.Sub(start) / feedShare)
	w.each(func(i int) {
		more := func() bool {
			if limit := w.cfg.opLimit; limit > 0 {
				return w.ex[i].sent < limit
			}
			return time.Now().Before(feedFrom)
		}
		for more() && w.ex[i].query(w.next[i](), true) {
		}
	})
	w.querying = time.Since(start)
	fed := time.Now()
	w.each(func(i int) {
		w.fol[i].recording.Store(true)
		for time.Now().Before(deadline) && w.prod[i].appendBatch(true) {
		}
	})
	w.feeding = time.Since(fed)
	for i, f := range w.fol {
		f.await(int64(w.prod[i].total), 5*time.Second)
		f.recording.Store(false)
	}
}

func (w *explore) verify() *outcome {
	o := &outcome{querying: w.querying, appending: w.feeding}
	var memo map[*query][]int
	if w.hot {
		memo = make(map[*query][]int)
	}
	for i, e := range w.ex {
		o.addExplorer(e)
		o.checkAnswers(w.ds, e.checks, memo)
		o.addProducer(w.prod[i])
		o.fail(btoi(w.fol[i].stop() != nil), "unsubscribe failed")
		o.addFollower(w.fol[i], w.prod[i].total)
	}
	return o
}

func (w *explore) layers() *layerInputs {
	lo, hi := w.ds.Span()
	gen := newQueryGen(w.cfg.seed+977, "games")
	return &layerInputs{
		ds: w.ds, eng: w.eng,
		explorers: w.ex[:], prod: w.prod[0], fol: w.fol[0],
		sample:    func() *query { return gen.draw(lo, hi) },
		newTarget: func() (appendTarget, error) { return core.NewLiveEngine(dims, engOpts, core.LiveOptions{}) },
		before:    w.before, after: w.counters(),
	}
}

func (w *explore) stack() *stack { return w.st }
func (w *explore) close() error  { return w.st.close() }
