package topk

import (
	"fmt"
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
// Storage is the appendable columnar tail of data.Dataset: every append goes
// through Dataset.AppendRow, so the attribute matrix stays one contiguous
// row-major array and each chunk tree is built over a zero-copy Slice view of
// it — tree probes run the same pooled-Scratch bulk-scoring path as a
// statically built Index. When an append grows the storage into a new
// array, the chunk trees are re-pointed at it, so only snapshotted views
// keep the old one alive. Ids address append order. A live engine probes
// the forest through pinned prefix views (Snapshot), each of which continues
// a caller's merge over its chunk trees and buffer (View.MergeRange).
//
// Appends are not safe for concurrent use; queries are read-only and may run
// concurrently with each other (not with Append).
type Forest struct {
	opts Options
	base int
	// tail is the growing columnar storage; chunk trees index zero-copy
	// prefix slices of it.
	tail  *data.Dataset
	trees []chunkTree
	// buffered records are those in [bufStart, tail.Len()).
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

// NewForest returns an empty forest for d-dimensional records.
func NewForest(d int, opts Options) *Forest {
	opts = opts.withDefaults()
	tail, err := data.NewAppendable(d, 0)
	if err != nil {
		panic(err) // unreachable: d >= 1 is checked by callers' constructors
	}
	return &Forest{opts: opts, base: opts.LengthThreshold, tail: tail}
}

// Len returns the number of appended records.
func (f *Forest) Len() int { return f.tail.Len() }

// Time returns the arrival time of record i.
func (f *Forest) Time(i int) int64 { return f.tail.Time(i) }

// Attrs returns the attribute vector of record i (aliases internal storage).
func (f *Forest) Attrs(i int) []float64 { return f.tail.Attrs(i) }

// Dataset returns the forest's growing backing storage. The committed prefix
// is immutable; use Prefix to snapshot a stable view.
func (f *Forest) Dataset() *data.Dataset { return f.tail }

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
func (f *Forest) buffered() int { return f.tail.Len() - f.bufStart }

// Append adds one record; attrs is copied. Errors (dimension mismatch,
// non-increasing time) leave the forest unchanged.
func (f *Forest) Append(t int64, attrs []float64) error {
	c := cap(f.tail.Times())
	if err := f.tail.AppendRow(t, attrs); err != nil {
		return fmt.Errorf("topk: %w", err)
	}
	if cap(f.tail.Times()) != c {
		f.rebase()
	}
	if f.tail.Len()-f.bufStart >= f.base {
		f.flush()
	}
	return nil
}

// flush turns the buffer into a tree and cascades equal-size merges.
func (f *Forest) flush() {
	start, size := f.bufStart, f.tail.Len()-f.bufStart
	f.bufStart = f.tail.Len()
	for len(f.trees) > 0 && f.trees[len(f.trees)-1].size == size {
		prev := f.trees[len(f.trees)-1]
		f.trees = f.trees[:len(f.trees)-1]
		start, size = prev.start, prev.size+size
	}
	f.trees = append(f.trees, chunkTree{start: start, size: size, idx: f.buildTree(start, size)})
	f.rebuilds++
	f.indexedRows += size
}

// rebase re-points every chunk tree at the storage the tail just grew into
// (see Index.Rebase), so the previous generation stays reachable only from
// views snapshotted before the growth. Views hold their own copies of the
// tree set, so the swap never disturbs them.
func (f *Forest) rebase() {
	for i, ct := range f.trees {
		f.trees[i].idx = ct.idx.Rebase(f.tail.Slice(ct.start, ct.start+ct.size))
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

func (f *Forest) buildTree(start, size int) *Index {
	ds := f.tail.Slice(start, start+size)
	if ds.Len() == 0 {
		panic("topk: empty chunk tree") // unreachable: flush only runs on full buffers
	}
	return Build(ds, f.opts)
}

// Snapshot returns an append-stable view of the forest's first n records
// (clamped to the current length). The view captures its own copy of the
// chunk-tree set and the buffered range, so later Appends — including flushes
// that pop and merge trees — are invisible to it: the view keeps answering
// exactly over records [0, n) for as long as it is held, with no lock
// required. Chunk trees are immutable once built and the columnar storage is
// prefix-stable, which is what makes the capture sound.
//
// Snapshot itself must not run concurrently with Append (callers serialize,
// see core.LiveEngine); the returned view's queries are read-only and safe
// for concurrent use with each other and with later Appends.
func (f *Forest) Snapshot(n int) *View {
	if n < 0 || n > f.tail.Len() {
		n = f.tail.Len()
	}
	v := &View{
		ds:       f.tail.Prefix(n),
		bufStart: min(f.bufStart, n),
	}
	for _, ct := range f.trees {
		if ct.start >= n {
			break // trees are position-ordered; the rest lie past the prefix
		}
		v.trees = append(v.trees, ct)
	}
	return v
}

// View is an append-stable prefix snapshot of a Forest (see Forest.Snapshot):
// the forest's probes, pinned to the records committed at snapshot time.
type View struct {
	ds       *data.Dataset // prefix view of the storage, Len() == n
	trees    []chunkTree   // captured tree set (may straddle n; probes clip)
	bufStart int           // records [bufStart, Len()) are scanned unindexed
}

// Len returns the number of records the view covers.
func (v *View) Len() int { return v.ds.Len() }

// Dataset returns the view's stable prefix storage.
func (v *View) Dataset() *data.Dataset { return v.ds }

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
	forestMergeRange(m, v.ds, v.trees, v.bufStart, s, lo, hi, shift, false)
}

// MergeRangeMirrored continues m with the view's records [lo, hi) as a
// time-reversed copy would report them, record i as id shift−i at time
// −Time(i); see Index.MergeRangeMirrored.
func (v *View) MergeRangeMirrored(m *Merger, s score.Scorer, lo, hi, shift int) {
	forestMergeRange(m, v.ds, v.trees, v.bufStart, s, lo, hi, shift, true)
}

// UpperBoundAll returns a valid upper bound of the scorer over every record
// the view covers: the max of the captured chunk-tree root bounds and a bulk
// scan of the still-unindexed buffered suffix. The sharded engine's
// cross-shard pruning uses it for the mutable tail shard; because a View is
// pinned at snapshot time, the bound can never go stale under later appends —
// a fresh snapshot (and with it a fresh bound) is taken per query epoch.
func (v *View) UpperBoundAll(s score.Scorer) float64 {
	n := v.ds.Len()
	best := math.Inf(-1)
	for _, ct := range v.trees {
		if ct.start >= n {
			break
		}
		if ct.start+ct.size <= n {
			if ub := ct.idx.UpperBoundAll(s); ub > best {
				best = ub
			}
			continue
		}
		// A tree straddling the prefix end (merged after the snapshot point):
		// bound just its in-prefix rows by scoring them directly.
		if ub := maxScoreRange(v.ds, s, ct.start, n); ub > best {
			best = ub
		}
	}
	if ub := maxScoreRange(v.ds, s, max(v.bufStart, treesEnd(v.trees, n)), n); ub > best {
		best = ub
	}
	return best
}

// treesEnd returns the first record index not covered by the captured trees,
// clamped to n.
func treesEnd(trees []chunkTree, n int) int {
	if len(trees) == 0 {
		return 0
	}
	last := trees[len(trees)-1]
	return min(last.start+last.size, n)
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

// Query returns up to k records with highest (score desc, time desc) rank
// among records with arrival time in [t1, t2], with IDs referring to append
// order.
func (f *Forest) Query(s score.Scorer, k int, t1, t2 int64) []Item {
	lo, hi := f.tail.IndexRange(t1, t2)
	sc := GetScratch()
	out := f.QueryRangeInto(s, k, lo, hi, sc, nil)
	PutScratch(sc)
	return out
}

// QueryRangeInto answers Query over the half-open append-order index range
// [lo, hi) on caller-provided working memory (see Index.QueryInto): the
// overlapping chunk trees and the still-buffered tail continue one merge (see
// MergeRange) living in sc. With a warmed Scratch and a reused dst the whole
// fan-out performs zero allocations.
func (f *Forest) QueryRangeInto(s score.Scorer, k int, lo, hi int, sc *Scratch, dst []Item) []Item {
	m := sc.Merger(k)
	f.MergeRange(&m, s, lo, hi, 0)
	return m.Finish(dst)
}

// MergeRange continues m with the records of the half-open append-order range
// [lo, hi), reported under id+shift; see Index.MergeRange.
func (f *Forest) MergeRange(m *Merger, s score.Scorer, lo, hi, shift int) {
	forestMergeRange(m, f.tail, f.trees, f.bufStart, s, lo, hi, shift, false)
}

// MergeRangeMirrored continues m with records [lo, hi) as a time-reversed
// copy would report them; see Index.MergeRangeMirrored.
func (f *Forest) MergeRangeMirrored(m *Merger, s score.Scorer, lo, hi, shift int) {
	forestMergeRange(m, f.tail, f.trees, f.bufStart, s, lo, hi, shift, true)
}

// forestMergeRange is the shared probe core of Forest and View: trees and
// bufStart describe an indexed prefix of ds ([bufStart, ds.Len()) is scanned
// unindexed); the range is clamped to ds, so a View's prefix storage pins hi
// regardless of how far the parent forest has grown since the snapshot. Every
// chunk tree continues the caller's merge, so a tree descends only where it
// can still beat the k-th item the earlier ones left. With mirror set every
// record is reported mirrored (see Index.MergeRangeMirrored): a tree row r is
// forest record start+r, so its mirrored id is (shift−start)−r.
func forestMergeRange(m *Merger, ds *data.Dataset, trees []chunkTree, bufStart int, s score.Scorer, lo, hi, shift int, mirror bool) {
	n := ds.Len()
	if hi > n {
		hi = n
	}
	if lo < 0 {
		lo = 0
	}
	if m.res.k <= 0 || lo >= hi {
		return
	}
	for _, ct := range trees {
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
	// Bulk-score the clipped still-buffered suffix in one stripe.
	if blo, bhi := max(bufStart, lo), hi; blo < bhi {
		times := ds.Times()
		flat := ds.FlatAttrs()
		d := ds.Dims()
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
				m.res.offer(Item{ID: int32(shift - i), Time: -times[i], Score: buf[i-blo]})
			}
			return
		}
		for i := blo; i < bhi; i++ {
			m.res.offer(Item{ID: int32(i + shift), Time: times[i], Score: buf[i-blo]})
		}
	}
}
