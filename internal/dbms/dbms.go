// Package dbms implements the paper's DBMS-backed durable top-k procedures
// (§VI-C) against the page-structured engine of package pagestore — the
// offline substitute for the PostgreSQL + PL/Python deployment. T-Hop and
// T-Base run as "stored procedures" whose every data access goes through
// the buffer pool, so elapsed time and page-read counts reproduce the
// Tables IV-VI comparison. A database is loaded into memory and lives as
// long as its DB; there is no file format and no reopen.
package dbms

import (
	"fmt"
	"time"

	"repro/internal/data"
	"repro/internal/pagestore"
	"repro/internal/score"
)

// Options configures database loading.
type Options struct {
	// PoolPages is the buffer pool capacity in frames (default 256, i.e.
	// 2 MiB — deliberately much smaller than the data to exercise I/O).
	PoolPages int
}

// DB is a loaded table with its summary index.
type DB struct {
	Pool  *pagestore.BufferPool
	Table *pagestore.Table
	Index *pagestore.SummaryIndex

	minTime int64
	maxTime int64
}

// Stats instruments one stored-procedure invocation.
type Stats struct {
	TopKQueries int
	PageReads   int // buffer pool misses (backing store reads)
	PageHits    int
	Elapsed     time.Duration
}

// Load bulk-loads ds into a fresh table and builds its summary index.
func Load(ds *data.Dataset, opts Options) (*DB, error) {
	if opts.PoolPages == 0 {
		opts.PoolPages = 256
	}
	pool := pagestore.NewBufferPool(pagestore.NewMemBacking(), opts.PoolPages)
	table, err := pagestore.CreateTable(pool, ds.Dims())
	if err != nil {
		return nil, err
	}
	for i := 0; i < ds.Len(); i++ {
		if err := table.Append(uint32(i), ds.Time(i), ds.Attrs(i)); err != nil {
			return nil, fmt.Errorf("dbms: loading record %d: %w", i, err)
		}
	}
	if err := table.Seal(); err != nil {
		return nil, err
	}
	idx, err := pagestore.BuildSummaryIndex(pool, table)
	if err != nil {
		return nil, err
	}
	if err := pool.FlushAll(); err != nil {
		return nil, err
	}
	lo, hi := ds.Span()
	return &DB{Pool: pool, Table: table, Index: idx, minTime: lo, maxTime: hi}, nil
}

// Span returns the stored time range.
func (db *DB) Span() (lo, hi int64) { return db.minTime, db.maxTime }

// member reports top-k membership given the window's top-k items.
func member(items []pagestore.Item, k int, sc float64) bool {
	if len(items) < k {
		return true
	}
	return sc >= items[k-1].Score
}

// snapshotStats captures pool counters before a procedure runs.
func (db *DB) snapshotStats() pagestore.PoolStats { return db.Pool.Stats() }

func (db *DB) diffStats(before pagestore.PoolStats, queries int, elapsed time.Duration) Stats {
	after := db.Pool.Stats()
	return Stats{
		TopKQueries: queries,
		PageReads:   after.Reads - before.Reads,
		PageHits:    after.Hits - before.Hits,
		Elapsed:     elapsed,
	}
}

// DurableTHop runs the T-Hop stored procedure: hop along the timeline using
// index-served top-k queries (Algorithm 1 over the paged engine).
func (db *DB) DurableTHop(s score.Scorer, k int, tau, start, end int64) ([]uint32, Stats, error) {
	before := db.snapshotStats()
	startAt := time.Now()
	queries := 0

	var res []uint32
	// Position at the newest record in I.
	cur, curScore, ok, err := db.newestAtOrBefore(end, start, s)
	if err != nil {
		return nil, Stats{}, err
	}
	for ok {
		queries++
		items, err := db.Index.TopK(s, k, cur.Time-tau, cur.Time)
		if err != nil {
			return nil, Stats{}, err
		}
		if member(items, k, curScore) {
			res = append(res, cur.ID)
			cur, curScore, ok, err = db.newestAtOrBefore(cur.Time-1, start, s)
		} else {
			maxT := items[0].Time
			for _, it := range items[1:] {
				if it.Time > maxT {
					maxT = it.Time
				}
			}
			cur, curScore, ok, err = db.newestAtOrBefore(maxT, start, s)
		}
		if err != nil {
			return nil, Stats{}, err
		}
	}
	reverseU32(res)
	return res, db.diffStats(before, queries, time.Since(startAt)), nil
}

// probe is one located record.
type probe struct {
	ID   uint32
	Time int64
}

// newestAtOrBefore returns the newest record with time in [floor, t].
func (db *DB) newestAtOrBefore(t, floor int64, s score.Scorer) (probe, float64, bool, error) {
	var found bool
	var p probe
	var sc float64
	err := db.Table.ScanRangeBackward(floor, t, func(id uint32, tm int64, attrs []float64) bool {
		p = probe{ID: id, Time: tm}
		sc = s.Score(attrs)
		found = true
		return false
	})
	return p, sc, found, err
}

// DurableTBase runs the T-Base stored procedure: a continuous backward
// sliding window over the heap pages with incremental top-k maintenance;
// the top-k is recomputed through the index only when a member expires.
func (db *DB) DurableTBase(s score.Scorer, k int, tau, start, end int64) ([]uint32, Stats, error) {
	before := db.snapshotStats()
	startAt := time.Now()
	queries := 0

	// Collect the records of I newest-first by one backward scan. Holding
	// ids+times only (8 bytes each) mirrors the cursor of the stored
	// procedure without caching attribute payloads.
	type rec struct {
		id uint32
		t  int64
		sc float64
	}
	var recs []rec
	err := db.Table.ScanRangeBackward(start, end, func(id uint32, tm int64, attrs []float64) bool {
		recs = append(recs, rec{id: id, t: tm, sc: s.Score(attrs)})
		return true
	})
	if err != nil {
		return nil, Stats{}, err
	}
	var res []uint32
	var cur []pagestore.Item
	var prevLoT int64
	for i, r := range recs {
		winLo := r.t - tau
		if i == 0 {
			queries++
			cur, err = db.Index.TopK(s, k, winLo, r.t)
		} else {
			expiredID := recs[i-1].id
			if itemsContain(cur, expiredID) {
				queries++
				cur, err = db.Index.TopK(s, k, winLo, r.t)
			} else {
				// Entering records: times in [winLo, prevLoT).
				err = db.Table.ScanRange(winLo, prevLoT-1, func(id uint32, tm int64, attrs []float64) bool {
					cur = offerPaged(cur, k, pagestore.Item{ID: id, Time: tm, Score: s.Score(attrs)})
					return true
				})
			}
		}
		if err != nil {
			return nil, Stats{}, err
		}
		prevLoT = winLo
		if member(cur, k, r.sc) {
			res = append(res, r.id)
		}
	}
	reverseU32(res)
	return res, db.diffStats(before, queries, time.Since(startAt)), nil
}

func itemsContain(items []pagestore.Item, id uint32) bool {
	for _, it := range items {
		if it.ID == id {
			return true
		}
	}
	return false
}

func offerPaged(items []pagestore.Item, k int, it pagestore.Item) []pagestore.Item {
	better := func(a, b pagestore.Item) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Time > b.Time
	}
	if len(items) == k && !better(it, items[k-1]) {
		return items
	}
	pos := len(items)
	for pos > 0 && better(it, items[pos-1]) {
		pos--
	}
	if len(items) < k {
		items = append(items, pagestore.Item{})
	}
	copy(items[pos+1:], items[pos:])
	items[pos] = it
	return items
}

func reverseU32(s []uint32) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
