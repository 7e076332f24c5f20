// Package data provides the core temporal dataset abstraction shared by all
// durable top-k algorithms and substrates.
//
// A Dataset is a sequence of instant-stamped records ordered by strictly
// increasing arrival time. Each record carries a d-dimensional real-valued
// attribute vector; ranking is performed by a user-specified scoring
// function over those attributes (see package score). Batch-constructed
// datasets are immutable; datasets created with NewAppendable grow through
// AppendRow, and committed records never change either way: views, slices
// and indexes built over a prefix stay valid as the tail grows. A growth
// copies the columns into a new array; the old one stays valid, but only for
// the readers still holding it. The live engines of package core re-point
// their long-lived holders (sealed shards, chunk trees) at the new array, so
// the old one is released once the readers pinned to it finish.
//
// Attribute storage is columnar-friendly: every constructor materializes one
// contiguous row-major backing array (record i occupies flat[i*d : (i+1)*d]),
// so the scoring hot loops of package topk can evaluate whole index
// spans with a single bounds-checked slice and no per-record pointer chase
// (see score.BulkScorer). Live appends preserve the contiguity: AppendRow
// grows both columns together in amortized chunks, so FlatAttrs is one
// row-major array at every point of a stream's life.
//
// Timestamps are int64 ticks at granularity 1: a window of length tau
// anchored at time t covers the closed range [t-tau, t].
package data

import (
	"errors"
	"fmt"
	"sort"
)

// Common validation errors returned by constructors.
var (
	ErrEmpty          = errors.New("data: dataset must contain at least one record")
	ErrDimMismatch    = errors.New("data: all records must have the same dimensionality")
	ErrNotIncreasing  = errors.New("data: arrival times must be strictly increasing")
	ErrLengthMismatch = errors.New("data: times and attribute rows must have equal length")
	ErrNotAppendable  = errors.New("data: dataset was not constructed with NewAppendable")
)

// Record is a lightweight view of one record of a Dataset. The Attrs slice
// aliases the dataset's storage and must not be modified.
type Record struct {
	ID    int       // position in arrival order, 0-based
	Time  int64     // arrival time (instant stamp)
	Attrs []float64 // d attribute values
}

// Dataset is an append-only, time-ordered collection of instant-stamped
// records. The zero value is not usable; construct with New, a Builder, or
// NewAppendable for a live dataset that starts empty and grows via AppendRow.
// Committed records are immutable.
type Dataset struct {
	times []int64
	// flat is the single row-major attribute backing array: record i's
	// attributes are flat[i*dims : (i+1)*dims]. Guaranteed contiguous by
	// every constructor.
	flat []float64
	dims int
	// appendable marks datasets created by NewAppendable — the only ones
	// whose backing arrays this package owns outright. AppendRow refuses to
	// grow any other dataset: batch constructors retain caller slices
	// (NewFlat is zero-copy) and views share a parent's arrays, so an
	// in-capacity append there would scribble over memory the caller or
	// parent still owns.
	appendable bool
}

// New validates and wraps the given parallel slices into a Dataset. The
// times slice is retained (not copied) and must not be modified afterwards;
// attribute rows are copied into a single contiguous backing array. Times
// must be strictly increasing and every attribute row must have the same
// length (at least 1).
func New(times []int64, attrs [][]float64) (*Dataset, error) {
	if len(times) == 0 {
		return nil, ErrEmpty
	}
	if len(times) != len(attrs) {
		return nil, ErrLengthMismatch
	}
	d := len(attrs[0])
	if d == 0 {
		return nil, ErrDimMismatch
	}
	for i, row := range attrs {
		if len(row) != d {
			return nil, fmt.Errorf("%w: row %d has %d attrs, want %d", ErrDimMismatch, i, len(row), d)
		}
		if i > 0 && times[i] <= times[i-1] {
			return nil, fmt.Errorf("%w: times[%d]=%d, times[%d]=%d", ErrNotIncreasing, i-1, times[i-1], i, times[i])
		}
	}
	flat := make([]float64, 0, len(times)*d)
	for _, row := range attrs {
		flat = append(flat, row...)
	}
	return &Dataset{times: times, flat: flat, dims: d}, nil
}

// NewFlat wraps an already-contiguous row-major attribute array: record i's
// attributes are flat[i*d : (i+1)*d]. Both slices are retained (not copied);
// callers must not modify them afterwards. Times must be strictly increasing
// and len(flat) must equal len(times)*d.
func NewFlat(times []int64, flat []float64, d int) (*Dataset, error) {
	if len(times) == 0 {
		return nil, ErrEmpty
	}
	if d < 1 {
		return nil, ErrDimMismatch
	}
	if len(flat) != len(times)*d {
		return nil, fmt.Errorf("%w: %d attribute values for %d records of dim %d", ErrLengthMismatch, len(flat), len(times), d)
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("%w: times[%d]=%d, times[%d]=%d", ErrNotIncreasing, i-1, times[i-1], i, times[i])
		}
	}
	return &Dataset{times: times, flat: flat, dims: d}, nil
}

// NewAppendable returns an empty live dataset for d-dimensional records,
// ready to grow one record at a time via AppendRow. The capacity hint
// pre-sizes the columnar storage for that many records and may be zero.
// Unlike batch-constructed datasets, an appendable dataset may be empty;
// Span reports (0, 0) until the first record arrives.
func NewAppendable(d, capacity int) (*Dataset, error) {
	if d < 1 {
		return nil, ErrDimMismatch
	}
	if capacity < 0 {
		capacity = 0
	}
	return &Dataset{
		times:      make([]int64, 0, capacity),
		flat:       make([]float64, 0, capacity*d),
		dims:       d,
		appendable: true,
	}, nil
}

// appendChunkRows floors the growth quantum of AppendRow: reallocation
// happens at most once per chunk of appends (then doubles), keeping the
// amortized per-append cost O(1) while the columns stay contiguous.
const appendChunkRows = 256

// AppendRow commits one record to the growing tail: t must exceed the last
// committed time and attrs must have exactly Dims values (copied). Both
// columns grow together in amortized chunks, so FlatAttrs remains a single
// contiguous row-major array across appends. Only datasets created with
// NewAppendable accept appends (ErrNotAppendable otherwise): batch
// constructors and views alias storage this package does not own.
//
// Growth never disturbs readers of the committed prefix: Prefix and Slice
// views, and any index holding the Times/FlatAttrs slices of a prefix, keep
// observing exactly the records they covered — a reallocation copies the
// committed rows to the new array, and the old one stays valid for the
// readers pinned to it. Long-lived holders should move to the new array
// (compare cap(Times()) across the call; see topk.Index.Rebase), or each
// keeps a whole old generation of the columns alive. AppendRow
// itself is not safe for use concurrently with other Dataset calls; callers
// that mix writers and readers serialize externally (see
// core.LiveShardedEngine, whose tail forest appends every row in place).
func (ds *Dataset) AppendRow(t int64, attrs []float64) error {
	if !ds.appendable {
		return ErrNotAppendable
	}
	if len(attrs) != ds.dims {
		return fmt.Errorf("%w: got %d attrs, want %d", ErrDimMismatch, len(attrs), ds.dims)
	}
	if n := len(ds.times); n > 0 && t <= ds.times[n-1] {
		return fmt.Errorf("%w: appending t=%d after t=%d", ErrNotIncreasing, t, ds.times[n-1])
	}
	ds.grow(1)
	ds.times = append(ds.times, t)
	ds.flat = append(ds.flat, attrs...)
	return nil
}

// AppendRows bulk-commits n records from parallel columns: times must be
// strictly increasing (and exceed the last committed time) and flat must
// hold exactly len(times)*Dims values in row-major order. Both inputs are
// copied after one up-front validation pass, so a failed call commits
// nothing. Recovery paths use it to reload checkpointed shards without
// per-row overhead; the same view-stability guarantees as AppendRow apply.
func (ds *Dataset) AppendRows(times []int64, flat []float64) error {
	if !ds.appendable {
		return ErrNotAppendable
	}
	if len(flat) != len(times)*ds.dims {
		return fmt.Errorf("%w: %d attribute values for %d records of dim %d", ErrLengthMismatch, len(flat), len(times), ds.dims)
	}
	if len(times) == 0 {
		return nil
	}
	last := int64(-1 << 62)
	ok := false
	if n := len(ds.times); n > 0 {
		last, ok = ds.times[n-1], true
	}
	for i, t := range times {
		if (ok || i > 0) && t <= last {
			return fmt.Errorf("%w: appending t=%d after t=%d", ErrNotIncreasing, t, last)
		}
		last, ok = t, true
	}
	ds.grow(len(times))
	ds.times = append(ds.times, times...)
	ds.flat = append(ds.flat, flat...)
	return nil
}

// grow reserves capacity for n more records, reallocating both columns in
// lockstep. Chunked doubling keeps appends amortized O(1); copying (rather
// than growing in place) is what lets prefix views outlive the reallocation.
// The old array is not freed here: it lives as long as some reader pins it,
// which is why the live engines re-point their shards and trees on growth.
func (ds *Dataset) grow(n int) {
	need := len(ds.times) + n
	if need <= cap(ds.times) && need*ds.dims <= cap(ds.flat) {
		return
	}
	newCap := cap(ds.times) * 2
	if newCap < appendChunkRows {
		newCap = appendChunkRows
	}
	for newCap < need {
		newCap *= 2
	}
	times := make([]int64, len(ds.times), newCap)
	copy(times, ds.times)
	flat := make([]float64, len(ds.flat), newCap*ds.dims)
	copy(flat, ds.flat)
	ds.times, ds.flat = times, flat
}

// Reserve pre-grows the columnar storage to hold n more records without
// further reallocation, for callers that know an ingest's size up front.
func (ds *Dataset) Reserve(n int) {
	if n > 0 {
		ds.grow(n)
	}
}

// MustNew is like New but panics on error. Intended for tests and generators
// whose inputs are correct by construction.
func MustNew(times []int64, attrs [][]float64) *Dataset {
	ds, err := New(times, attrs)
	if err != nil {
		panic(err)
	}
	return ds
}

// Len returns the number of records.
func (ds *Dataset) Len() int { return len(ds.times) }

// Dims returns the attribute dimensionality d.
func (ds *Dataset) Dims() int { return ds.dims }

// Time returns the arrival time of record i.
func (ds *Dataset) Time(i int) int64 { return ds.times[i] }

// Times returns the full arrival-time slice. It aliases internal storage and
// must not be modified.
func (ds *Dataset) Times() []int64 { return ds.times }

// Attrs returns the attribute vector of record i. The returned slice aliases
// internal storage and must not be modified.
func (ds *Dataset) Attrs(i int) []float64 {
	d := ds.dims
	return ds.flat[i*d : (i+1)*d : (i+1)*d]
}

// FlatAttrs returns the contiguous row-major attribute backing array: record
// i's attributes are FlatAttrs()[i*Dims() : (i+1)*Dims()]. It aliases
// internal storage and must not be modified. Bulk scorers consume it
// directly (see score.BulkScorer).
func (ds *Dataset) FlatAttrs() []float64 { return ds.flat }

// Record returns a view of record i.
func (ds *Dataset) Record(i int) Record {
	return Record{ID: i, Time: ds.times[i], Attrs: ds.Attrs(i)}
}

// Span returns the arrival times of the first and last records, or (0, 0)
// for an empty (appendable, not yet fed) dataset.
func (ds *Dataset) Span() (lo, hi int64) {
	if len(ds.times) == 0 {
		return 0, 0
	}
	return ds.times[0], ds.times[len(ds.times)-1]
}

// TimeSpan returns hi-lo, the length of the covered time range.
func (ds *Dataset) TimeSpan() int64 {
	lo, hi := ds.Span()
	return hi - lo
}

// LowerBound returns the smallest record index i with Time(i) >= t,
// or Len() if no such record exists.
func (ds *Dataset) LowerBound(t int64) int {
	return sort.Search(len(ds.times), func(i int) bool { return ds.times[i] >= t })
}

// UpperBound returns the smallest record index i with Time(i) > t,
// or Len() if no such record exists.
func (ds *Dataset) UpperBound(t int64) int {
	return sort.Search(len(ds.times), func(i int) bool { return ds.times[i] > t })
}

// IndexRange returns the half-open index range [lo, hi) of records whose
// arrival time lies in the closed time window [t1, t2]. The range is empty
// (lo == hi) when no record falls inside the window.
func (ds *Dataset) IndexRange(t1, t2 int64) (lo, hi int) {
	return ds.LowerBound(t1), ds.UpperBound(t2)
}

// At returns the index of the record arriving exactly at time t, or -1.
func (ds *Dataset) At(t int64) int {
	i := ds.LowerBound(t)
	if i < len(ds.times) && ds.times[i] == t {
		return i
	}
	return -1
}

// Prefix returns a dataset view over the first n records, sharing storage.
// The view's capacity is clipped to its length, so appends through the parent
// never become visible to (or writable through) the view.
func (ds *Dataset) Prefix(n int) *Dataset {
	if n <= 0 || n > ds.Len() {
		n = ds.Len()
	}
	d := ds.dims
	return &Dataset{times: ds.times[:n:n], flat: ds.flat[: n*d : n*d], dims: d}
}

// Slice returns a zero-copy view over the records of the half-open index
// range [lo, hi): both the time slice and the flat columnar attribute array
// are re-sliced, never copied, so record i of the view is record lo+i of ds
// backed by the same storage. Out-of-range bounds are clamped; an empty range
// (including any slice of an empty appendable dataset) returns an empty,
// non-nil view — callers iterate zero records instead of dereferencing nil.
func (ds *Dataset) Slice(lo, hi int) *Dataset {
	if lo < 0 {
		lo = 0
	}
	if hi > ds.Len() {
		hi = ds.Len()
	}
	if lo >= hi {
		return &Dataset{dims: ds.dims}
	}
	d := ds.dims
	return &Dataset{times: ds.times[lo:hi:hi], flat: ds.flat[lo*d : hi*d : hi*d], dims: d}
}

// SliceTime returns the zero-copy view (see Slice) over the records whose
// arrival time lies in the closed window [t1, t2]; the view is empty (never
// nil) when no record falls inside the window. Time shards carve a dataset
// into contiguous per-engine views with this without duplicating the columnar
// storage.
func (ds *Dataset) SliceTime(t1, t2 int64) *Dataset {
	lo, hi := ds.IndexRange(t1, t2)
	return ds.Slice(lo, hi)
}

// Project returns a new dataset restricted to the given attribute dimensions
// (in the given order). Attribute storage is copied; times are shared.
func (ds *Dataset) Project(dims []int) (*Dataset, error) {
	if len(dims) == 0 {
		return nil, ErrDimMismatch
	}
	for _, d := range dims {
		if d < 0 || d >= ds.dims {
			return nil, fmt.Errorf("data: projection dimension %d out of range [0,%d)", d, ds.dims)
		}
	}
	n, d := ds.Len(), len(dims)
	flat := make([]float64, n*d)
	for i := 0; i < n; i++ {
		src := ds.flat[i*ds.dims:]
		row := flat[i*d : (i+1)*d]
		for j, dim := range dims {
			row[j] = src[dim]
		}
	}
	return &Dataset{times: ds.times, flat: flat, dims: d}, nil
}

// ReversedInto returns the time-mirrored dataset: record i of the result is
// record n-1-i of the original, stamped with ^t = -t-1 for its original time
// t: mirrored like a negation, but every int64 has a mirror (-MinInt64
// wraps, ^MinInt64 is MaxInt64).
// Reversing maps "looking-ahead" durability windows onto the "looking-back"
// machinery: a window [p.t, p.t+tau] in the original becomes [q.t-tau, q.t]
// for the mirrored record q. The mirrored rows are written into times and
// flat, which are reallocated only when too small (pass nil for fresh
// storage). The result aliases that storage (read it back through Times and
// FlatAttrs to keep a grown buffer), so it is valid until the caller reuses
// the buffers.
//
// The copy is a separate function so that ReversedInto inlines: a caller
// that keeps only a copy of the returned header allocates nothing.
func (ds *Dataset) ReversedInto(times []int64, flat []float64) *Dataset {
	times, flat = ds.reverseInto(times, flat)
	return &Dataset{times: times, flat: flat, dims: ds.dims}
}

// reverseInto writes the time-mirrored rows of ds into times and flat (see
// ReversedInto) and returns them.
func (ds *Dataset) reverseInto(times []int64, flat []float64) ([]int64, []float64) {
	n, d := ds.Len(), ds.dims
	if cap(times) < n {
		times = make([]int64, n)
	}
	if cap(flat) < n*d {
		flat = make([]float64, n*d)
	}
	times, flat = times[:n], flat[:n*d]
	for i := 0; i < n; i++ {
		j := n - 1 - i
		times[i] = ^ds.times[j]
		copy(flat[i*d:(i+1)*d], ds.flat[j*d:(j+1)*d])
	}
	return times, flat
}

// Builder incrementally assembles a Dataset in arrival order.
type Builder struct {
	times []int64
	flat  []float64
	dims  int
}

// NewBuilder returns a builder for records with d attributes. The capacity
// hint pre-sizes internal storage and may be zero.
func NewBuilder(d, capacity int) *Builder {
	if capacity < 0 {
		capacity = 0
	}
	return &Builder{
		times: make([]int64, 0, capacity),
		flat:  make([]float64, 0, capacity*d),
		dims:  d,
	}
}

// Len returns the number of records appended so far.
func (b *Builder) Len() int { return len(b.times) }

// Append adds one record. Times must be strictly increasing across calls and
// attrs must have exactly d values; attrs is copied.
func (b *Builder) Append(t int64, attrs []float64) error {
	if len(attrs) != b.dims {
		return fmt.Errorf("%w: got %d attrs, want %d", ErrDimMismatch, len(attrs), b.dims)
	}
	if n := len(b.times); n > 0 && t <= b.times[n-1] {
		return fmt.Errorf("%w: appending t=%d after t=%d", ErrNotIncreasing, t, b.times[len(b.times)-1])
	}
	b.times = append(b.times, t)
	b.flat = append(b.flat, attrs...)
	return nil
}

// Build finalizes the builder into a Dataset. The builder must not be used
// afterwards.
func (b *Builder) Build() (*Dataset, error) {
	if len(b.times) == 0 {
		return nil, ErrEmpty
	}
	return &Dataset{times: b.times, flat: b.flat, dims: b.dims}, nil
}
