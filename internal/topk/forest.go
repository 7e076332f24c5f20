package topk

import (
	"math"

	"repro/internal/data"
	"repro/internal/score"
)

// Forest is an appendable range top-k index built with the logarithmic
// method: records accumulate in a small buffer; full buffers become static
// trees, and equal-sized trees merge by rebuilding. Appends cost amortized
// O(log n) index work and queries fan out over O(log n) trees plus the
// buffer, providing the update support the paper assumes of the building
// block (§II). Records must arrive in strictly increasing time order, the
// natural regime for instant-stamped temporal data.
//
// A forest indexes the rows of an appendable data.Dataset from a start row
// onward, in place: every append goes through Forest.Append, which commits
// the row to the dataset (data.Dataset.AppendRow) and indexes it, so the row
// is stored once however many readers share the columns. Ids are local to
// the start row: record i is dataset row start+i. Each chunk tree is built
// over a zero-copy Slice of the columns, so tree probes run the same
// pooled-Scratch bulk-scoring path as a statically built Index. When an
// append grows the storage into a new array, the chunk trees are re-pointed
// at it, so only snapshotted views keep the old one alive. Queries read
// pinned views (Snapshot), each of which continues a caller's merge over its
// chunk trees and buffer (View.MergeRange).
//
// Appends are not safe for concurrent use; a view's queries are read-only and
// may run concurrently with each other and with later appends.
type Forest struct {
	opts  Options
	base  int
	ds    *data.Dataset // the appendable columns, possibly shared
	start int           // the first dataset row the forest indexes
	trees []chunkTree   // position-ordered, tiling local records [0, bufStart)
	// buffered records are those in [bufStart, Len()).
	bufStart int
	rebuilds int
	// indexedRows counts every row (re)indexed by tree builds, the
	// amortization metric: indexedRows/Len is the average number of times a
	// record has been touched by a rebuild (O(log n) by the analysis).
	indexedRows int
}

type chunkTree struct {
	start, size int
	idx         *Index
}

// NewForest returns a forest indexing the rows appended to ds from now on:
// rows already in ds are not part of it, and every later append to ds must
// go through the forest. A fresh data.NewAppendable dataset makes a
// standalone forest whose ids are append order.
func NewForest(ds *data.Dataset, opts Options) *Forest {
	opts = opts.withDefaults()
	return &Forest{opts: opts, base: opts.LengthThreshold, ds: ds, start: ds.Len()}
}

// Len returns the number of appended records.
func (f *Forest) Len() int { return f.ds.Len() - f.start }

// Time returns the arrival time of record i.
func (f *Forest) Time(i int) int64 { return f.ds.Time(f.start + i) }

// Attrs returns the attribute vector of record i (aliases internal storage).
func (f *Forest) Attrs(i int) []float64 { return f.ds.Attrs(f.start + i) }

// Rebuilds returns the number of static tree (re)builds performed, an
// ablation metric for the amortized analysis.
func (f *Forest) Rebuilds() int { return f.rebuilds }

// IndexedRows returns the total number of rows (re)indexed across all tree
// builds; divided by Len it is the average rebuild work per appended record
// (the amortization constant the logarithmic method bounds by O(log n)).
func (f *Forest) IndexedRows() int { return f.indexedRows }

// Trees returns the current number of static trees in the forest.
func (f *Forest) Trees() int { return len(f.trees) }

// buffered returns the number of records still awaiting their first tree.
func (f *Forest) buffered() int { return f.Len() - f.bufStart }

// Append adds one record; attrs is copied. Errors (dimension mismatch,
// non-increasing time) leave the forest unchanged.
func (f *Forest) Append(t int64, attrs []float64) error {
	c := cap(f.ds.Times())
	if err := f.ds.AppendRow(t, attrs); err != nil {
		return err
	}
	if cap(f.ds.Times()) != c {
		f.rebase()
	}
	if f.buffered() >= f.base {
		f.flush()
	}
	return nil
}

// flush turns the buffer into a tree and cascades equal-size merges.
func (f *Forest) flush() {
	start, size := f.bufStart, f.Len()-f.bufStart
	f.bufStart = f.Len()
	for len(f.trees) > 0 && f.trees[len(f.trees)-1].size == size {
		last := len(f.trees) - 1
		prev := f.trees[last]
		// Clear the slot before popping it: a tree left in the spare
		// capacity is missed by rebase and pins its column generation.
		f.trees[last] = chunkTree{}
		f.trees = f.trees[:last]
		start, size = prev.start, prev.size+size
	}
	f.trees = append(f.trees, chunkTree{start: start, size: size, idx: Build(f.rows(start, size), f.opts)})
	f.rebuilds++
	f.indexedRows += size
}

// rows returns the zero-copy view of local records [start, start+size).
func (f *Forest) rows(start, size int) *data.Dataset {
	return f.ds.Slice(f.start+start, f.start+start+size)
}

// rebase re-points every chunk tree at the storage the dataset just grew into
// (see Index.Rebase), so the previous generation stays reachable only from
// views snapshotted before the growth. Views hold their own copies of the
// tree set, so the swap never disturbs them.
func (f *Forest) rebase() {
	for i, ct := range f.trees {
		f.trees[i].idx = ct.idx.Rebase(f.rows(ct.start, ct.size))
	}
}

// TreeDatasets returns the dataset each chunk tree indexes, in position
// order: zero-copy slices of the forest's current storage.
func (f *Forest) TreeDatasets() []*data.Dataset {
	out := make([]*data.Dataset, len(f.trees))
	for i, ct := range f.trees {
		out[i] = ct.idx.Dataset()
	}
	return out
}

// Snapshot returns an append-stable view of the forest's first n records
// (clamped to the current length). The view captures its own copy of the
// chunk trees lying wholly inside the prefix, and scans the rest of the
// prefix unindexed, so later Appends — including flushes that pop and merge
// trees — are invisible to it: the view keeps answering exactly over records
// [0, n) for as long as it is held, with no lock required. Chunk trees are
// immutable once built and the columnar storage is prefix-stable, which is
// what makes the capture sound.
//
// Snapshot itself must not run concurrently with Append (callers serialize,
// see core.LiveShardedEngine); the returned view's queries are read-only and
// safe for concurrent use with each other and with later Appends.
func (f *Forest) Snapshot(n int) *View {
	if n < 0 || n > f.Len() {
		n = f.Len()
	}
	v := &View{ds: f.rows(0, n)}
	for _, ct := range f.trees {
		if ct.start+ct.size > n {
			break // trees are position-ordered; the rest reach past the prefix
		}
		v.trees = append(v.trees, ct)
		v.bufStart = ct.start + ct.size
	}
	return v
}

// Query returns up to k records with highest (score desc, time desc) rank
// among records with arrival time in [t1, t2], with IDs local to the forest,
// answered through a view of every record appended so far.
func (f *Forest) Query(s score.Scorer, k int, t1, t2 int64) []Item {
	return f.Snapshot(-1).Query(s, k, t1, t2)
}

// View is an append-stable prefix snapshot of a Forest (see Forest.Snapshot):
// the forest's probes, pinned to the records committed at snapshot time.
type View struct {
	ds       *data.Dataset // the prefix's rows, Len() == n
	trees    []chunkTree   // captured trees, tiling records [0, bufStart)
	bufStart int           // records [bufStart, Len()) are scanned unindexed
}

// Len returns the number of records the view covers.
func (v *View) Len() int { return v.ds.Len() }

// Dataset returns the view's stable prefix storage.
func (v *View) Dataset() *data.Dataset { return v.ds }

// Rebase returns the view over ds, a content-identical copy of the view's
// rows in other storage: every captured tree is rebased (see Index.Rebase),
// nothing is rebuilt, and every probe answers exactly as before. The live
// engine uses it to move a sealed tail awaiting its freeze onto the current
// generation of grown columns. Rebase panics if ds differs in length or
// dimensionality; equal contents are the caller's contract.
func (v *View) Rebase(ds *data.Dataset) *View {
	if ds.Len() != v.ds.Len() || ds.Dims() != v.ds.Dims() {
		panic("topk: Rebase over a dataset of another shape")
	}
	w := &View{ds: ds, trees: make([]chunkTree, len(v.trees)), bufStart: v.bufStart}
	for i, ct := range v.trees {
		w.trees[i] = chunkTree{start: ct.start, size: ct.size, idx: ct.idx.Rebase(ds.Slice(ct.start, ct.start+ct.size))}
	}
	return w
}

// Query returns up to k records with highest (score desc, time desc) rank
// among the view's records with arrival time in [t1, t2].
func (v *View) Query(s score.Scorer, k int, t1, t2 int64) []Item {
	lo, hi := v.ds.IndexRange(t1, t2)
	sc := GetScratch()
	m := sc.Merger(k)
	v.MergeRange(&m, s, lo, hi, 0)
	out := m.Finish(nil)
	PutScratch(sc)
	return out
}

// MergeRange continues m with the view's records [lo, hi), reported under
// id+shift; see Index.MergeRange.
func (v *View) MergeRange(m *Merger, s score.Scorer, lo, hi, shift int) {
	v.mergeRange(m, s, lo, hi, shift, false)
}

// MergeRangeMirrored continues m with the view's records [lo, hi) as a
// time-reversed copy would report them, record i as id shift−i at time
// ^Time(i); see Index.MergeRangeMirrored.
func (v *View) MergeRangeMirrored(m *Merger, s score.Scorer, lo, hi, shift int) {
	v.mergeRange(m, s, lo, hi, shift, true)
}

// UpperBoundAll returns a valid upper bound of the scorer over every record
// the view covers: the max of the captured chunk-tree root bounds and a bulk
// scan of the unindexed suffix. The sharded engine's cross-shard pruning uses
// it for the mutable tail shard; because a View is pinned at snapshot time,
// the bound can never go stale under later appends — a fresh snapshot (and
// with it a fresh bound) is taken per query epoch.
func (v *View) UpperBoundAll(s score.Scorer) float64 {
	best := maxScoreRange(v.ds, s, v.bufStart, v.ds.Len())
	for _, ct := range v.trees {
		if ub := ct.idx.UpperBoundAll(s); ub > best {
			best = ub
		}
	}
	return best
}

// maxScoreRange bulk-scores records [lo, hi) of ds and returns the maximum.
func maxScoreRange(ds *data.Dataset, s score.Scorer, lo, hi int) float64 {
	best := math.Inf(-1)
	if lo >= hi {
		return best
	}
	flat, d := ds.FlatAttrs(), ds.Dims()
	sc := GetScratch()
	buf := sc.scoreBuf(hi - lo)
	if bulk, ok := s.(score.BulkScorer); ok {
		bulk.ScoreRange(buf, flat, d, lo, hi)
	} else {
		for i := lo; i < hi; i++ {
			buf[i-lo] = s.Score(flat[i*d : (i+1)*d : (i+1)*d])
		}
	}
	for _, v := range buf {
		if v > best {
			best = v
		}
	}
	PutScratch(sc)
	return best
}

// mergeRange is the view's probe core: the range is clamped to the view, so
// its prefix storage pins hi regardless of how far the forest has grown since
// the snapshot. Every chunk tree continues the caller's merge, so a tree
// descends only where it can still beat the k-th item the earlier ones left.
// With mirror set every record is reported mirrored (see
// Index.MergeRangeMirrored): a tree row r is view record start+r, so its
// mirrored id is (shift−start)−r.
func (v *View) mergeRange(m *Merger, s score.Scorer, lo, hi, shift int, mirror bool) {
	lo, hi = max(lo, 0), min(hi, v.ds.Len())
	if m.res.k <= 0 || lo >= hi {
		return
	}
	for _, ct := range v.trees {
		clo, chi := max(ct.start, lo), min(ct.start+ct.size, hi)
		if clo >= chi {
			continue
		}
		if mirror {
			ct.idx.mergeRange(m, s, clo-ct.start, chi-ct.start, shift-ct.start, true)
		} else {
			ct.idx.mergeRange(m, s, clo-ct.start, chi-ct.start, ct.start+shift, false)
		}
	}
	// Bulk-score the clipped unindexed suffix in one stripe.
	if blo, bhi := max(v.bufStart, lo), hi; blo < bhi {
		times := v.ds.Times()
		flat := v.ds.FlatAttrs()
		d := v.ds.Dims()
		buf := m.sc.scoreBuf(bhi - blo)
		if bulk, ok := s.(score.BulkScorer); ok {
			bulk.ScoreRange(buf, flat, d, blo, bhi)
		} else {
			for i := blo; i < bhi; i++ {
				buf[i-blo] = s.Score(flat[i*d : (i+1)*d : (i+1)*d])
			}
		}
		if mirror {
			for i := bhi - 1; i >= blo; i-- {
				m.res.offer(Item{ID: int32(shift - i), Time: ^times[i], Score: buf[i-blo]})
			}
			return
		}
		for i := blo; i < bhi; i++ {
			m.res.offer(Item{ID: int32(i + shift), Time: times[i], Score: buf[i-blo]})
		}
	}
}
