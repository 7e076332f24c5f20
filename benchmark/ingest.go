package main

import (
	"math"
	"sync/atomic"
	"time"

	durable "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

const (
	ingestBatch = 64
	// recoveryQueries are answered after the window over the wire, checked
	// against brute force, and asked again of the recovered store.
	recoveryQueries = 50
)

// ingest is writes beside reads on one crash-safe store: a producer appends
// 64-row batches (see storeOptions for the flush policy), sending the next
// once the follower holds the events of the last, while the second connection
// explores the most recent rows and follows two standing queries.
type ingest struct {
	cfg *config
	tr  *tracer

	st    *stack
	dir   string
	store *durable.Store
	ex    *explorer
	prod  *producer
	fol   *follower
	gen   *queryGen
	head  atomic.Int64 // arrival time of the last acknowledged row

	before, after         liveStats
	ckptBefore, ckptAfter int
	elapsed, ckptWait     time.Duration
	recovery              durable.RecoveryStats
}

// recentSpan is how far back queries reach: the ticks spanned by the most
// recent preload/2 rows (gaps average 1.5 ticks), so a query's cost does not
// drift with how many rows the window managed to append.
func (w *ingest) recentSpan() int64 { return int64(w.cfg.preload/2) * 3 / 2 }

func (w *ingest) draw(g *queryGen) *query {
	hi := w.head.Load()
	return g.draw(hi-w.recentSpan(), hi)
}

func (w *ingest) setup() (err error) {
	cfg := w.cfg
	w.st = newStack(w.tr)
	if w.dir, err = w.st.tempDir(cfg.scratch); err != nil {
		return err
	}
	if w.store, err = w.st.addStore("feed", w.dir, cfg.sealRows); err != nil {
		return err
	}
	rows := newRowGen(cfg.seed)
	for left := cfg.preload; left > 0; {
		n := min(left, cfg.sealRows)
		batch := make([]durable.StoreRow, n)
		for i, r := range rows.batch(n) {
			batch[i] = durable.StoreRow{T: r.Time, Attrs: r.Attrs}
		}
		if _, _, _, err = w.store.AppendBatch(batch); err != nil {
			return err
		}
		left -= n
	}
	w.head.Store(rows.t)
	w.settle()
	if err = w.st.listen(); err != nil {
		return err
	}
	pc, err := w.st.dial(false)
	if err != nil {
		return err
	}
	qc, err := w.st.dial(true)
	if err != nil {
		return err
	}
	w.prod = newProducer(w.st, pc, "feed", rows, cfg.preload, ingestBatch)
	w.ex = newExplorer(w.st, qc, cfg)
	w.fol = newFollower(w.st, qc, w.prod.ring, 1<<18)
	tau := w.recentSpan() / 10
	if err = w.fol.subscribe(standingReq("feed", 10, tau, []float64{1, 0.5}, ""), false); err != nil {
		return err
	}
	if err = w.fol.subscribe(standingReq("feed", 10, tau, nil, "points + 2*log1p(assists)"), false); err != nil {
		return err
	}
	w.gen = newQueryGen(cfg.seed*31, "feed")
	wgen := newQueryGen(-cfg.seed*31, "feed").thin(cfg.warmOps)
	together(
		func() {
			for i := 0; i < cfg.warmOps/4; i++ {
				w.append(false)
			}
		},
		func() {
			for i := 0; i < cfg.warmOps; i++ {
				w.ex.query(w.draw(wgen), false)
			}
		},
	)
	w.settle()
	return nil
}

// settle waits until the background seal, compaction and checkpoint work
// queued so far is done.
func (w *ingest) settle() {
	w.store.WaitCheckpoints()
	w.store.Engine().WaitCompacted()
	w.store.WaitCheckpoints()
}

func (w *ingest) append(record bool) bool {
	if !w.prod.appendBatch(record) {
		return false
	}
	w.head.Store(w.prod.rows.t)
	return w.fol.await(int64(w.prod.total*len(w.fol.subs)), 2*time.Second)
}

func (w *ingest) counters() liveStats {
	eng := w.store.Engine()
	return liveStats{
		seals: eng.Seals(), compactions: eng.Compactions(), shards: eng.NumShards(),
		rebuilds: eng.Rebuilds(), indexed: eng.IndexedRows(), rows: eng.Len(),
	}
}

func (w *ingest) run(deadline time.Time) {
	w.before, w.ckptBefore = w.counters(), w.store.Checkpoints()
	start := time.Now()
	w.fol.recording.Store(true)
	together(
		func() {
			for time.Now().Before(deadline) && w.append(true) {
			}
		},
		func() {
			for time.Now().Before(deadline) && w.ex.query(w.draw(w.gen), true) {
			}
		},
	)
	w.elapsed = time.Since(start)
	w.fol.await(int64(w.prod.total*len(w.fol.subs)), 5*time.Second)
	w.fol.recording.Store(false)
	// How far the background work had fallen behind the appends.
	t0 := time.Now()
	w.settle()
	w.ckptWait = time.Since(t0)
	w.after, w.ckptAfter = w.counters(), w.store.Checkpoints()
}

func (w *ingest) verify() *outcome {
	o := &outcome{querying: w.elapsed, appending: w.elapsed}
	o.addExplorer(w.ex)
	o.addProducer(w.prod)
	o.fail(btoi(w.fol.stop() != nil), "unsubscribe failed")
	o.addFollower(w.fol, w.prod.total)

	// Quiesced: every acknowledged row must be there, and answers over them
	// must match brute force.
	w.settle()
	acked := w.cfg.preload + w.prod.total
	ds := w.store.Engine().Dataset()
	o.attempted++
	if ds.Len() != acked {
		o.fail(1, "store holds %d rows, %d were acknowledged", ds.Len(), acked)
	}
	vgen := newQueryGen(w.cfg.seed+977, "feed")
	kept := make([]answered, 0, recoveryQueries)
	for i := 0; i < recoveryQueries; i++ {
		q := w.draw(vgen)
		o.attempted++
		resp, err := w.ex.c.Do(q.req)
		if err != nil || !resp.OK {
			o.fail(1, "post-window query failed: %v", err)
			continue
		}
		kept = append(kept, answered{q: q, recs: resp.Records})
	}
	o.checkAnswers(ds, kept, nil)

	// Restart: the recovered store must hold the acknowledged rows and give
	// the same answers bit for bit.
	w.st.stopServing()
	o.attempted++
	if err := w.store.Close(); err != nil {
		o.fail(1, "closing the store: %v", err)
	}
	re, err := durable.Recover(w.dir, dims, w.st.storeOptions(w.cfg.sealRows))
	if err != nil {
		o.fail(1+len(kept), "recovering the store: %v", err)
		return o
	}
	w.recovery = re.Stats()
	o.attempted++
	if re.Len() != acked {
		o.fail(1, "recovered %d rows, %d were acknowledged", re.Len(), acked)
	}
	for _, a := range kept {
		o.attempted++
		res, err := re.Engine().DurableTopK(a.q.coreQuery(core.Auto))
		if err != nil || !sameRecords(a.recs, res.Records) {
			o.fail(1, "answer changed across recovery: k=%d tau=%d [%d,%d] (%v)", a.q.req.K, a.q.req.Tau, a.q.req.Start, a.q.req.End, err)
		}
	}
	if err := re.Close(); err != nil {
		o.fail(1, "closing the recovered store: %v", err)
	}
	return o
}

// sameRecords compares id, time and score bits.
func sameRecords(got []wire.Record, want []core.ResultRecord) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		w := want[i]
		if g.ID != w.ID || g.Time != w.Time || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return false
		}
	}
	return true
}

func (w *ingest) layers() *layerInputs {
	eng := w.store.Engine()
	ds := eng.Dataset()
	// Direct timings run on the span the queries ran on.
	recent := ds.Slice(max(ds.Len()-w.cfg.preload/2, 0), ds.Len())
	lo, hi := recent.Span()
	gen := newQueryGen(w.cfg.seed+977, "feed")
	shard := w.st.storeOptions(w.cfg.sealRows).Shard
	return &layerInputs{
		ds: recent, eng: eng,
		explorers: []*explorer{w.ex}, prod: w.prod, fol: w.fol,
		sample: func() *query { return gen.draw(lo, hi) },
		newTarget: func() (appendTarget, error) {
			return core.NewLiveShardedEngine(dims, engOpts, core.LiveOptions{}, shard)
		},
		appendsLead: true, before: w.before, after: w.after,
		store: &storeInputs{
			dir: w.dir, opts: w.st.storeOptions(w.cfg.sealRows), rows: w.cfg.preload + w.prod.total,
			checkpoints: w.ckptAfter - w.ckptBefore, waitMs: float64(w.ckptWait) / 1e6, recovery: w.recovery,
		},
	}
}

func (w *ingest) stack() *stack { return w.st }

func (w *ingest) close() error {
	if w.st == nil {
		return nil
	}
	return w.st.close()
}
