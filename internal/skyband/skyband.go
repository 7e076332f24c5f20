// Package skyband implements the durable k-skyband candidate index of the
// S-Band algorithm (paper §IV-B, Fig. 4).
//
// For every record p it computes the longest duration tau_p such that p
// belongs to the k-skyband of the window [p.t - tau_p, p.t] — equivalently,
// the time distance to p's k-th most recent dominator, minus one tick. Each
// record maps to the 2-D point (arrival time, tau_p); a priority search tree
// then answers the 3-sided query I x [tau, +inf) that yields a candidate
// superset of every durable top-k answer under any monotone scoring
// function.
//
// Because the query-time k is unknown at build time, a Ladder maintains one
// tree per power-of-two k level and serves a query with the level k' in
// [k, 2k) (paper §IV-B).
package skyband

import (
	"math"
	"sort"
	"sync"

	"repro/internal/data"
	"repro/internal/pst"
	"repro/internal/skyline"
)

// Unbounded marks records with fewer than k dominators in all of history:
// they stay in the k-skyband for every window length.
const Unbounded = math.MaxInt64

// DefaultBlockSize is the record-block granularity of the dominator scan.
const DefaultBlockSize = 256

// DefaultBlockSkylineCap bounds stored block skylines; blocks with larger
// skylines are scanned directly.
const DefaultBlockSkylineCap = 64

// Scanner computes k-skyband durations with a backward dominator scan
// accelerated by per-block skylines: a whole block is skipped when no block
// skyline member dominates the probe (an exact test, see
// skyline.AnyDominates). Construct with NewScanner; safe for concurrent use
// after construction.
type Scanner struct {
	ds        *data.Dataset
	blockSize int
	blockSky  [][]int32 // nil entries mean "scan the block directly"
	pts       dsPoints
}

type dsPoints struct{ ds *data.Dataset }

func (p dsPoints) Point(id int32) []float64 { return p.ds.Attrs(int(id)) }

// NewScanner precomputes block skylines in one pass. blockSize <= 0 selects
// DefaultBlockSize.
func NewScanner(ds *data.Dataset, blockSize int) *Scanner {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	sc := &Scanner{ds: ds, blockSize: blockSize, pts: dsPoints{ds}}
	nBlocks := (ds.Len() + blockSize - 1) / blockSize
	sc.blockSky = make([][]int32, nBlocks)
	ids := make([]int32, 0, blockSize)
	for b := 0; b < nBlocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		ids = ids[:0]
		for i := lo; i < hi; i++ {
			ids = append(ids, int32(i))
		}
		sky := skyline.Compute(sc.pts, ids)
		if len(sky) <= DefaultBlockSkylineCap {
			// Copy: Compute may alias its scratch space.
			own := make([]int32, len(sky))
			copy(own, sky)
			sc.blockSky[b] = own
		}
	}
	return sc
}

// Duration returns the longest tau such that record i is in the k-skyband of
// [t_i - tau, t_i], or Unbounded when record i has fewer than k dominators.
//
// budget caps the number of records examined per call (0 = unlimited). When
// the budget is exhausted before k dominators are found the result is
// Unbounded — a safe over-approximation: the S-Band candidate set may only
// grow, never lose a durable record.
func (sc *Scanner) Duration(i, k, budget int) int64 {
	p := sc.ds.Attrs(i)
	found := 0
	examined := 0
	kth := int64(0)
	// Scan the partial block containing i, then whole blocks going back.
	blockStart := (i / sc.blockSize) * sc.blockSize
	for j := i - 1; j >= blockStart; j-- {
		examined++
		if skyline.Dominates(sc.ds.Attrs(j), p) {
			found++
			if found == k {
				kth = sc.ds.Time(j)
				return sc.ds.Time(i) - kth - 1
			}
		}
		if budget > 0 && examined >= budget {
			return Unbounded
		}
	}
	for b := blockStart/sc.blockSize - 1; b >= 0; b-- {
		if sky := sc.blockSky[b]; sky != nil {
			examined += len(sky)
			if !skyline.AnyDominates(sc.pts, sky, p) {
				if budget > 0 && examined >= budget {
					return Unbounded
				}
				continue
			}
		}
		lo := b * sc.blockSize
		for j := lo + sc.blockSize - 1; j >= lo; j-- {
			examined++
			if skyline.Dominates(sc.ds.Attrs(j), p) {
				found++
				if found == k {
					kth = sc.ds.Time(j)
					return sc.ds.Time(i) - kth - 1
				}
			}
		}
		if budget > 0 && examined >= budget {
			return Unbounded
		}
	}
	return Unbounded
}

// Durations computes the k-skyband duration of every record (see Duration).
func (sc *Scanner) Durations(k, budget int) []int64 {
	out := make([]int64, sc.ds.Len())
	for i := range out {
		out[i] = sc.Duration(i, k, budget)
	}
	return out
}

// Durations is a convenience wrapper constructing a throwaway Scanner.
func Durations(ds *data.Dataset, k, budget int) []int64 {
	return NewScanner(ds, 0).Durations(k, budget)
}

// Ladder is the durable k-skyband index: one priority search tree per
// power-of-two k level, built lazily on first use. Safe for concurrent use.
type Ladder struct {
	ds     *data.Dataset
	budget int
	sc     *Scanner

	mu     sync.Mutex
	levels map[int]*pst.Tree
}

// NewLadder returns an empty ladder over ds. budget caps the per-record
// dominator scan (0 = exact); blockSize tunes the scanner (0 = default).
// Construction is cheap; trees are built lazily per level.
func NewLadder(ds *data.Dataset, budget, blockSize int) *Ladder {
	return &Ladder{
		ds:     ds,
		budget: budget,
		sc:     NewScanner(ds, blockSize),
		levels: make(map[int]*pst.Tree),
	}
}

// Dataset returns the dataset the ladder ranks; candidate ids address it.
func (ld *Ladder) Dataset() *data.Dataset { return ld.ds }

// Level returns the ladder level serving queries with parameter k: the
// smallest power of two >= k.
func Level(k int) int {
	if k < 1 {
		k = 1
	}
	l := 1
	for l < k {
		l <<= 1
	}
	return l
}

func (ld *Ladder) tree(level int) *pst.Tree {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	if t, ok := ld.levels[level]; ok {
		return t
	}
	durs := ld.sc.Durations(level, ld.budget)
	pts := make([]pst.Point, len(durs))
	for i, d := range durs {
		pts[i] = pst.Point{X: ld.ds.Time(i), Y: d, ID: int32(i)}
	}
	t := pst.Build(pts)
	ld.levels[level] = t
	return t
}

// Candidates returns the ids (ascending) of records with arrival time in
// [t1, t2] whose Level(k)-skyband duration is at least tau. For any monotone
// scorer the result is a superset of the tau-durable top-k records in the
// interval.
func (ld *Ladder) Candidates(k int, t1, t2, tau int64) []int32 {
	ids := ld.tree(Level(k)).Collect(t1, t2, tau)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CandidateCount returns |C| without materializing the ids.
func (ld *Ladder) CandidateCount(k int, t1, t2, tau int64) int {
	return ld.tree(Level(k)).Count(t1, t2, tau)
}

// BuiltLevels reports which ladder levels have been materialized.
func (ld *Ladder) BuiltLevels() []int {
	ld.mu.Lock()
	defer ld.mu.Unlock()
	out := make([]int, 0, len(ld.levels))
	for l := range ld.levels {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
