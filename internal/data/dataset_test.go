package data

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Dataset {
	t.Helper()
	ds, err := New(
		[]int64{1, 3, 4, 8, 10},
		[][]float64{{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := New([]int64{1}, [][]float64{{1}, {2}}); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length mismatch: %v", err)
	}
	if _, err := New([]int64{1, 2}, [][]float64{{1}, {1, 2}}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if _, err := New([]int64{2, 2}, [][]float64{{1}, {2}}); !errors.Is(err, ErrNotIncreasing) {
		t.Fatalf("equal times: %v", err)
	}
	if _, err := New([]int64{2, 1}, [][]float64{{1}, {2}}); !errors.Is(err, ErrNotIncreasing) {
		t.Fatalf("decreasing times: %v", err)
	}
	if _, err := New([]int64{1}, [][]float64{{}}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("zero dims: %v", err)
	}
}

func TestAccessors(t *testing.T) {
	ds := small(t)
	if ds.Len() != 5 || ds.Dims() != 2 {
		t.Fatalf("Len=%d Dims=%d", ds.Len(), ds.Dims())
	}
	if lo, hi := ds.Span(); lo != 1 || hi != 10 {
		t.Fatalf("Span=(%d,%d)", lo, hi)
	}
	if ds.TimeSpan() != 9 {
		t.Fatalf("TimeSpan=%d", ds.TimeSpan())
	}
	r := ds.Record(2)
	if r.ID != 2 || r.Time != 4 || r.Attrs[0] != 3 {
		t.Fatalf("Record(2)=%+v", r)
	}
}

func TestBounds(t *testing.T) {
	ds := small(t) // times 1 3 4 8 10
	cases := []struct {
		t     int64
		lower int
		upper int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 2}, {4, 2, 3},
		{5, 3, 3}, {8, 3, 4}, {9, 4, 4}, {10, 4, 5}, {11, 5, 5},
	}
	for _, c := range cases {
		if got := ds.LowerBound(c.t); got != c.lower {
			t.Errorf("LowerBound(%d)=%d want %d", c.t, got, c.lower)
		}
		if got := ds.UpperBound(c.t); got != c.upper {
			t.Errorf("UpperBound(%d)=%d want %d", c.t, got, c.upper)
		}
	}
	if lo, hi := ds.IndexRange(3, 8); lo != 1 || hi != 4 {
		t.Fatalf("IndexRange(3,8)=(%d,%d)", lo, hi)
	}
	if lo, hi := ds.IndexRange(5, 2); lo >= hi {
		// inverted/empty windows yield empty ranges
	} else {
		t.Fatalf("IndexRange(5,2)=(%d,%d) not empty", lo, hi)
	}
	if ds.At(4) != 2 || ds.At(5) != -1 {
		t.Fatalf("At: %d %d", ds.At(4), ds.At(5))
	}
}

func TestPrefix(t *testing.T) {
	ds := small(t)
	p := ds.Prefix(3)
	if p.Len() != 3 || p.Time(2) != 4 {
		t.Fatalf("Prefix(3): len=%d", p.Len())
	}
	if ds.Prefix(0).Len() != ds.Len() || ds.Prefix(99).Len() != ds.Len() {
		t.Fatal("out-of-range prefix must return the full dataset")
	}
}

func TestProject(t *testing.T) {
	ds := small(t)
	p, err := ds.Project([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dims() != 1 || p.Attrs(3)[0] != 3 {
		t.Fatalf("Project: dims=%d attrs=%v", p.Dims(), p.Attrs(3))
	}
	// Projection must copy: mutating the projection cannot touch the parent.
	p.Attrs(0)[0] = 42
	if ds.Attrs(0)[1] == 42 {
		t.Fatal("projection aliased parent storage")
	}
	if _, err := ds.Project([]int{2}); err == nil {
		t.Fatal("out-of-range dim must fail")
	}
	if _, err := ds.Project(nil); err == nil {
		t.Fatal("empty projection must fail")
	}
	// Re-ordering projection.
	swapped, err := ds.Project([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if swapped.Attrs(2)[0] != 2 || swapped.Attrs(2)[1] != 3 {
		t.Fatalf("swapped projection: %v", swapped.Attrs(2))
	}
}

func TestReversed(t *testing.T) {
	ds := small(t)
	rev := ds.ReversedInto(nil, nil)
	if rev.Len() != ds.Len() {
		t.Fatal("reversed length mismatch")
	}
	for i := 0; i < ds.Len(); i++ {
		j := ds.Len() - 1 - i
		if rev.Time(i) != -ds.Time(j) {
			t.Fatalf("rev.Time(%d)=%d want %d", i, rev.Time(i), -ds.Time(j))
		}
		for c := 0; c < ds.Dims(); c++ {
			if rev.Attrs(i)[c] != ds.Attrs(j)[c] {
				t.Fatalf("rev.Attrs(%d)=%v want %v", i, rev.Attrs(i), ds.Attrs(j))
			}
		}
	}
	// Double reversal restores times.
	back := rev.ReversedInto(nil, nil)
	for i := 0; i < ds.Len(); i++ {
		if back.Time(i) != ds.Time(i) {
			t.Fatal("double reversal must restore times")
		}
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(2, 4)
	if err := b.Append(1, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(1, []float64{3, 4}); !errors.Is(err, ErrNotIncreasing) {
		t.Fatalf("duplicate time: %v", err)
	}
	if err := b.Append(2, []float64{3}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: %v", err)
	}
	if err := b.Append(2, []float64{3, 4}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len=%d", b.Len())
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 2 || ds.Attrs(1)[1] != 4 {
		t.Fatalf("built dataset wrong: %v", ds.Attrs(1))
	}
	if _, err := NewBuilder(1, 0).Build(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty build: %v", err)
	}
}

func TestBuilderCopiesAttrs(t *testing.T) {
	b := NewBuilder(1, 0)
	row := []float64{7}
	if err := b.Append(1, row); err != nil {
		t.Fatal(err)
	}
	row[0] = 8
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Attrs(0)[0] != 7 {
		t.Fatal("builder must copy attribute rows")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := small(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() || back.Dims() != ds.Dims() {
		t.Fatalf("round trip: %d/%d", back.Len(), back.Dims())
	}
	for i := 0; i < ds.Len(); i++ {
		if back.Time(i) != ds.Time(i) {
			t.Fatalf("time %d mismatch", i)
		}
		for j := 0; j < ds.Dims(); j++ {
			if back.Attrs(i)[j] != ds.Attrs(i)[j] {
				t.Fatalf("attr %d/%d mismatch", i, j)
			}
		}
	}
}

func TestCSVRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(3, int(n)+1)
		tt := int64(0)
		for i := 0; i <= int(n); i++ {
			tt += int64(1 + rng.Intn(3))
			if err := b.Append(tt, []float64{rng.NormFloat64(), rng.Float64() * 1e9, float64(rng.Intn(10))}); err != nil {
				return false
			}
		}
		ds, err := b.Build()
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		for i := 0; i < ds.Len(); i++ {
			if back.Time(i) != ds.Time(i) {
				return false
			}
			for j := 0; j < 3; j++ {
				if back.Attrs(i)[j] != ds.Attrs(i)[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVMalformed(t *testing.T) {
	cases := []string{
		"",                         // no header
		"x,attr0\n1,2\n",           // bad header
		"time\n1\n",                // no attrs
		"time,attr0\nabc,2\n",      // bad time
		"time,attr0\n1,xyz\n",      // bad attr
		"time,attr0\n2,1\n1,1\n",   // decreasing
		"time,attr0\n1,1\n2,1,9\n", // ragged row
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: malformed CSV accepted", i)
		}
	}
}

func TestFlatAttrsContiguity(t *testing.T) {
	build := func(name string, ds *Dataset) {
		t.Helper()
		flat := ds.FlatAttrs()
		if len(flat) != ds.Len()*ds.Dims() {
			t.Fatalf("%s: FlatAttrs len=%d want %d", name, len(flat), ds.Len()*ds.Dims())
		}
		for i := 0; i < ds.Len(); i++ {
			row := ds.Attrs(i)
			if &row[0] != &flat[i*ds.Dims()] {
				t.Fatalf("%s: row %d does not alias the flat backing", name, i)
			}
		}
	}
	ds := small(t)
	build("New", ds)
	build("Reversed", ds.ReversedInto(nil, nil))
	build("Prefix", ds.Prefix(3))
	proj, err := ds.Project([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	build("Project", proj)
	b := NewBuilder(2, 0)
	for i := 0; i < 5; i++ {
		if err := b.Append(int64(i+1), []float64{float64(i), float64(2 * i)}); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	build("Builder", built)
}

func TestNewFlat(t *testing.T) {
	ds, err := NewFlat([]int64{1, 2, 3}, []float64{1, 2, 3, 4, 5, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3 || ds.Dims() != 2 || ds.Attrs(1)[1] != 4 {
		t.Fatalf("NewFlat: %v", ds.Attrs(1))
	}
	if _, err := NewFlat(nil, nil, 1); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := NewFlat([]int64{1}, []float64{1}, 0); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("zero dim: %v", err)
	}
	if _, err := NewFlat([]int64{1, 2}, []float64{1, 2, 3}, 2); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("length: %v", err)
	}
	if _, err := NewFlat([]int64{2, 1}, []float64{1, 2}, 1); !errors.Is(err, ErrNotIncreasing) {
		t.Fatalf("order: %v", err)
	}
}

func TestSlice(t *testing.T) {
	times := []int64{10, 20, 30, 40, 50}
	attrs := [][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}}
	ds := MustNew(times, attrs)

	v := ds.Slice(1, 4)
	if v.Len() != 3 || v.Dims() != 2 {
		t.Fatalf("Slice(1,4): len=%d dims=%d", v.Len(), v.Dims())
	}
	for i := 0; i < v.Len(); i++ {
		if v.Time(i) != ds.Time(1+i) {
			t.Fatalf("time %d: %d want %d", i, v.Time(i), ds.Time(1+i))
		}
		if &v.Attrs(i)[0] != &ds.Attrs(1 + i)[0] {
			t.Fatalf("record %d: attrs copied, want zero-copy alias", i)
		}
	}
	if &v.FlatAttrs()[0] != &ds.FlatAttrs()[2] {
		t.Fatal("flat array copied, want zero-copy alias")
	}
	if &v.Times()[0] != &ds.Times()[1] {
		t.Fatal("times copied, want zero-copy alias")
	}

	// Clamping and empty ranges.
	if full := ds.Slice(-3, 99); full.Len() != ds.Len() {
		t.Fatalf("clamped slice len %d", full.Len())
	}
	for _, v := range []*Dataset{ds.Slice(3, 3), ds.Slice(4, 2)} {
		if v == nil || v.Len() != 0 || v.Dims() != ds.Dims() {
			t.Fatalf("empty range must return an empty non-nil view, got %v", v)
		}
	}
}

func TestSliceTime(t *testing.T) {
	times := []int64{10, 20, 30, 40, 50}
	attrs := [][]float64{{1}, {2}, {3}, {4}, {5}}
	ds := MustNew(times, attrs)
	cases := []struct {
		t1, t2 int64
		want   []int64
	}{
		{20, 40, []int64{20, 30, 40}}, // closed on both ends
		{15, 44, []int64{20, 30, 40}}, // non-record endpoints
		{10, 10, []int64{10}},         // single boundary record
		{0, 9, nil},                   // before everything
		{51, 99, nil},                 // after everything
		{0, 99, times},                // everything
	}
	for _, c := range cases {
		v := ds.SliceTime(c.t1, c.t2)
		if c.want == nil {
			if v == nil || v.Len() != 0 {
				t.Fatalf("SliceTime(%d,%d): want empty view, got %v", c.t1, c.t2, v)
			}
			continue
		}
		if v == nil || v.Len() != len(c.want) {
			t.Fatalf("SliceTime(%d,%d): got %v", c.t1, c.t2, v)
		}
		for i, wt := range c.want {
			if v.Time(i) != wt {
				t.Fatalf("SliceTime(%d,%d)[%d] = %d want %d", c.t1, c.t2, i, v.Time(i), wt)
			}
		}
	}
}

// TestEmptyAppendableViews pins the empty-tail edge contract the live+sharded
// seal path relies on: Slice, SliceTime and Prefix over a just-opened (or
// just-sealed, momentarily empty) appendable tail return empty views — never
// nil, never a panic — and the views answer every read-only accessor sanely.
func TestEmptyAppendableViews(t *testing.T) {
	ds, err := NewAppendable(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]*Dataset{
		"Slice":     ds.Slice(0, 0),
		"SliceWide": ds.Slice(-5, 10),
		"SliceTime": ds.SliceTime(0, 100),
		"Prefix":    ds.Prefix(0),
		"PrefixBig": ds.Prefix(7),
	} {
		if v == nil {
			t.Fatalf("%s on empty appendable: nil view", name)
		}
		if v.Len() != 0 || v.Dims() != 3 {
			t.Fatalf("%s on empty appendable: len=%d dims=%d", name, v.Len(), v.Dims())
		}
		if lo, hi := v.Span(); lo != 0 || hi != 0 {
			t.Fatalf("%s: Span()=(%d,%d) want (0,0)", name, lo, hi)
		}
		if got := v.LowerBound(5); got != 0 {
			t.Fatalf("%s: LowerBound=%d want 0", name, got)
		}
		if qlo, qhi := v.IndexRange(0, 100); qlo != 0 || qhi != 0 {
			t.Fatalf("%s: IndexRange=(%d,%d) want (0,0)", name, qlo, qhi)
		}
	}
	// Views taken while empty must not observe records appended later.
	empty := ds.Prefix(0)
	if err := ds.AppendRow(1, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if empty.Len() != 0 {
		t.Fatalf("empty prefix view grew to %d records", empty.Len())
	}
}

func TestAppendable(t *testing.T) {
	if _, err := NewAppendable(0, 4); err == nil {
		t.Fatal("d=0 accepted")
	}
	ds, err := NewAppendable(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 0 || ds.Dims() != 2 {
		t.Fatalf("fresh appendable: len=%d dims=%d", ds.Len(), ds.Dims())
	}
	if lo, hi := ds.Span(); lo != 0 || hi != 0 {
		t.Fatalf("empty Span = (%d, %d), want (0, 0)", lo, hi)
	}
	if err := ds.AppendRow(1, []float64{1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// Only NewAppendable datasets own their storage outright; batch
	// constructors (zero-copy NewFlat especially) and views must refuse.
	batch := MustNew([]int64{1, 2}, [][]float64{{1, 2}, {3, 4}})
	if err := batch.AppendRow(3, []float64{5, 6}); !errors.Is(err, ErrNotAppendable) {
		t.Fatalf("batch dataset append: %v, want ErrNotAppendable", err)
	}
	if err := ds.Prefix(0).AppendRow(99, []float64{1, 2}); !errors.Is(err, ErrNotAppendable) {
		t.Fatal("view append accepted")
	}
	// Cross several chunk growth boundaries and verify contiguity plus
	// content at every step.
	n := 3*appendChunkRows + 17
	for i := 0; i < n; i++ {
		if err := ds.AppendRow(int64(i+1), []float64{float64(i), float64(-i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.AppendRow(int64(n), []float64{0, 0}); err == nil {
		t.Fatal("non-increasing time accepted")
	}
	if ds.Len() != n {
		t.Fatalf("Len=%d want %d", ds.Len(), n)
	}
	flat := ds.FlatAttrs()
	if len(flat) != n*2 {
		t.Fatalf("flat length %d want %d", len(flat), n*2)
	}
	for i := 0; i < n; i++ {
		if ds.Time(i) != int64(i+1) || flat[i*2] != float64(i) || flat[i*2+1] != float64(-i) {
			t.Fatalf("record %d corrupted after growth: t=%d attrs=(%g,%g)",
				i, ds.Time(i), flat[i*2], flat[i*2+1])
		}
	}
}

func TestAppendRowCopiesAttrs(t *testing.T) {
	ds, err := NewAppendable(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{7}
	if err := ds.AppendRow(1, row); err != nil {
		t.Fatal(err)
	}
	row[0] = 9
	if ds.Attrs(0)[0] != 7 {
		t.Fatal("AppendRow must copy attrs")
	}
}

// TestAppendPreservesViews is the aliasing contract live indexes depend on:
// prefix and slice views taken before appends keep observing exactly their
// records, whether the tail growth reallocates or writes into spare capacity.
func TestAppendPreservesViews(t *testing.T) {
	ds, err := NewAppendable(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := ds.AppendRow(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pre := ds.Prefix(10)
	sl := ds.Slice(3, 7)
	// In-capacity appends (chunk already allocated) and reallocating
	// appends (past several doublings) both happen below.
	for i := 10; i < 5*appendChunkRows; i++ {
		if err := ds.AppendRow(int64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if pre.Len() != 10 || sl.Len() != 4 {
		t.Fatalf("views resized: prefix=%d slice=%d", pre.Len(), sl.Len())
	}
	for i := 0; i < 10; i++ {
		if pre.Attrs(i)[0] != float64(i) {
			t.Fatalf("prefix record %d corrupted", i)
		}
	}
	for i := 0; i < 4; i++ {
		if sl.Attrs(i)[0] != float64(i+3) {
			t.Fatalf("slice record %d corrupted", i)
		}
	}
	// Reserve is a pure capacity hint: length and content unchanged.
	before := ds.Len()
	ds.Reserve(10_000)
	if ds.Len() != before || ds.Time(0) != 1 {
		t.Fatal("Reserve changed observable state")
	}
	if err := ds.AppendRow(int64(before+1), []float64{1}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamCSV(t *testing.T) {
	var buf bytes.Buffer
	orig := MustNew([]int64{1, 3, 9}, [][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	ds, err := NewAppendable(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	var rows int
	if err := StreamCSV(&buf, func(tm int64, attrs []float64) error {
		rows++
		return ds.AppendRow(tm, attrs)
	}); err != nil {
		t.Fatal(err)
	}
	if rows != 3 || ds.Len() != 3 {
		t.Fatalf("streamed %d rows, dataset %d", rows, ds.Len())
	}
	for i := 0; i < 3; i++ {
		if ds.Time(i) != orig.Time(i) || ds.Attrs(i)[0] != orig.Attrs(i)[0] {
			t.Fatalf("record %d mismatch", i)
		}
	}

	// Callback errors abort the stream and surface verbatim.
	buf.Reset()
	if err := WriteCSV(&buf, orig); err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("stop here")
	if err := StreamCSV(&buf, func(int64, []float64) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("callback error lost: %v", err)
	}
	// Malformed input surfaces as a parse error.
	if err := StreamCSV(strings.NewReader("time,attr0\nnope,1\n"), func(int64, []float64) error { return nil }); err == nil {
		t.Fatal("malformed time accepted")
	}
	if err := StreamCSV(strings.NewReader("wrong,header\n"), func(int64, []float64) error { return nil }); err == nil {
		t.Fatal("bad header accepted")
	}
}
