package pagestore

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlottedPageInsertRead(t *testing.T) {
	buf := make([]byte, PageSize)
	InitSlotted(buf)
	p := SlottedPage(buf)
	if p.NumSlots() != 0 {
		t.Fatal("fresh page must be empty")
	}
	tuples := [][]byte{[]byte("alpha"), []byte("b"), []byte("gamma-gamma")}
	for i, tup := range tuples {
		slot, ok := p.Insert(tup)
		if !ok || slot != i {
			t.Fatalf("insert %d: slot=%d ok=%v", i, slot, ok)
		}
	}
	for i, tup := range tuples {
		if got := string(p.Tuple(i)); got != string(tup) {
			t.Fatalf("tuple %d: %q want %q", i, got, tup)
		}
	}
}

func TestSlottedPageFull(t *testing.T) {
	buf := make([]byte, PageSize)
	InitSlotted(buf)
	p := SlottedPage(buf)
	tup := make([]byte, 100)
	inserted := 0
	for {
		if _, ok := p.Insert(tup); !ok {
			break
		}
		inserted++
	}
	// 100B payload + 4B slot entry: at most (8192-8)/104 tuples.
	if inserted == 0 || inserted > (PageSize-slotDirStart)/104 {
		t.Fatalf("inserted %d tuples", inserted)
	}
	// A tuple larger than the whole page must be rejected up front.
	huge := make([]byte, PageSize)
	if _, ok := p.Insert(huge); ok {
		t.Fatal("oversized tuple accepted")
	}
}

func TestSlottedPageFreeSpaceMonotone(t *testing.T) {
	buf := make([]byte, PageSize)
	InitSlotted(buf)
	p := SlottedPage(buf)
	prev := p.FreeSpace()
	for i := 0; i < 50; i++ {
		p.Insert(make([]byte, 32))
		if fs := p.FreeSpace(); fs >= prev {
			t.Fatalf("free space must shrink: %d -> %d", prev, fs)
		} else {
			prev = fs
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	buf := make([]byte, PageSize)
	InitSlotted(buf)
	p := SlottedPage(buf)
	p.Insert([]byte("payload"))
	p.SetChecksum()
	if err := p.VerifyChecksum(); err != nil {
		t.Fatalf("clean page failed verification: %v", err)
	}
	buf[PageSize-3] ^= 0xFF // flip a payload byte
	if err := p.VerifyChecksum(); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	f := func(id uint32, tm int64, a, b, c float64) bool {
		buf := make([]byte, TupleSize(3))
		EncodeTuple(buf, id, tm, []float64{a, b, c})
		out := make([]float64, 3)
		gid, gt := DecodeTuple(buf, out)
		eq := func(x, y float64) bool {
			return x == y || (math.IsNaN(x) && math.IsNaN(y))
		}
		return gid == id && gt == tm && eq(out[0], a) && eq(out[1], b) && eq(out[2], c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferPoolHitsMissesEvictions(t *testing.T) {
	backing := NewMemBacking()
	for i := 0; i < 10; i++ {
		backing.Alloc()
	}
	bp := NewBufferPool(backing, 4)
	// Touch pages 0..9: all misses, evictions from page 4 on.
	for i := 0; i < 10; i++ {
		f, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(f, false)
	}
	st := bp.Stats()
	if st.Reads != 10 || st.Hits != 0 {
		t.Fatalf("stats after cold pass: %+v", st)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions=%d want 6", st.Evictions)
	}
	// Pages 6..9 are resident now.
	f, err := bp.Fetch(9)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(f, false)
	if st := bp.Stats(); st.Hits != 1 {
		t.Fatalf("expected a hit, got %+v", st)
	}
}

func TestBufferPoolPinPreventsEviction(t *testing.T) {
	backing := NewMemBacking()
	for i := 0; i < 8; i++ {
		backing.Alloc()
	}
	bp := NewBufferPool(backing, 4)
	var pinned []*Frame
	for i := 0; i < 4; i++ {
		f, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		pinned = append(pinned, f)
	}
	if _, err := bp.Fetch(5); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("fully pinned pool must refuse: %v", err)
	}
	bp.Unpin(pinned[0], false)
	if _, err := bp.Fetch(5); err != nil {
		t.Fatalf("after unpin, fetch must succeed: %v", err)
	}
}

func TestBufferPoolWriteback(t *testing.T) {
	backing := NewMemBacking()
	id := backing.Alloc()
	backing.Alloc()
	backing.Alloc()
	backing.Alloc()
	backing.Alloc()
	bp := NewBufferPool(backing, 4)
	f, err := bp.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	f.Data[0] = 0xAB
	bp.Unpin(f, true)
	// Force eviction of the dirty page.
	for i := 1; i <= 4; i++ {
		g, err := bp.Fetch(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		bp.Unpin(g, false)
	}
	buf := make([]byte, PageSize)
	if err := backing.ReadPage(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("dirty page was not written back on eviction")
	}
	if bp.Stats().Writebacks == 0 {
		t.Fatal("writeback not counted")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	backing := NewMemBacking()
	for i := 0; i < 4; i++ {
		backing.Alloc()
	}
	bp := NewBufferPool(backing, 8)
	for i := 0; i < 4; i++ {
		f, _ := bp.Fetch(PageID(i))
		bp.Unpin(f, i%2 == 0)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	before := bp.Stats().Reads
	f, _ := bp.Fetch(0)
	bp.Unpin(f, false)
	if bp.Stats().Reads != before+1 {
		t.Fatal("DropAll must force a backing read on the next fetch")
	}
}

func TestUnpinPanicsWhenUnpinned(t *testing.T) {
	backing := NewMemBacking()
	backing.Alloc()
	bp := NewBufferPool(backing, 4)
	f, _ := bp.Fetch(0)
	bp.Unpin(f, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin must panic")
		}
	}()
	bp.Unpin(f, false)
}

func TestMemBackingRange(t *testing.T) {
	m := NewMemBacking()
	buf := make([]byte, PageSize)
	if err := m.ReadPage(0, buf); !errors.Is(err, ErrPageRange) {
		t.Fatalf("read past end: %v", err)
	}
	if err := m.WritePage(3, buf); !errors.Is(err, ErrPageRange) {
		t.Fatalf("write past end: %v", err)
	}
}

func TestTableAppendScan(t *testing.T) {
	bp := NewBufferPool(NewMemBacking(), 64)
	tbl, err := CreateTable(bp, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 5000
	rng := rand.New(rand.NewSource(7))
	times := make([]int64, n)
	tt := int64(0)
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(3))
		times[i] = tt
		if err := tbl.Append(uint32(i), tt, []float64{float64(i), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len=%d", tbl.Len())
	}
	// Forward scan over a sub-range.
	t1, t2 := times[100], times[400]
	var got []uint32
	err = tbl.ScanRange(t1, t2, func(id uint32, tm int64, attrs []float64) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 301 || got[0] != 100 || got[300] != 400 {
		t.Fatalf("forward scan: %d records, first=%v", len(got), got[0])
	}
	// Backward scan reverses the order.
	var back []uint32
	err = tbl.ScanRangeBackward(t1, t2, func(id uint32, tm int64, attrs []float64) bool {
		back = append(back, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 301 || back[0] != 400 || back[300] != 100 {
		t.Fatalf("backward scan: %d records, first=%v", len(back), back[0])
	}
	// Early stop.
	count := 0
	tbl.ScanRange(times[0], times[n-1], func(uint32, int64, []float64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestTableValidation(t *testing.T) {
	bp := NewBufferPool(NewMemBacking(), 8)
	if _, err := CreateTable(bp, 0); err == nil {
		t.Fatal("zero dims must fail")
	}
	tbl, err := CreateTable(bp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(0, 5, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Append(1, 5, []float64{1}); err == nil {
		t.Fatal("non-increasing time must fail")
	}
	if err := tbl.Append(1, 6, []float64{1, 2}); err == nil {
		t.Fatal("wrong arity must fail")
	}
}

func TestTableScanPruning(t *testing.T) {
	bp := NewBufferPool(NewMemBacking(), 1024)
	tbl, _ := CreateTable(bp, 1)
	for i := 0; i < 20000; i++ {
		tbl.Append(uint32(i), int64(i+1), []float64{1})
	}
	tbl.Seal()
	bp.ResetStats()
	// A narrow range must touch very few pages.
	tbl.ScanRange(500, 600, func(uint32, int64, []float64) bool { return true })
	st := bp.Stats()
	if st.Fetches > 3 {
		t.Fatalf("narrow scan fetched %d pages; pruning broken", st.Fetches)
	}
}

func TestSealIdempotent(t *testing.T) {
	bp := NewBufferPool(NewMemBacking(), 8)
	tbl, _ := CreateTable(bp, 1)
	tbl.Append(0, 1, []float64{1})
	if err := tbl.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Meta()) != 1 {
		t.Fatalf("double seal produced %d metas", len(tbl.Meta()))
	}
	// Appending after a seal opens a fresh page.
	if err := tbl.Append(1, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Meta()) != 2 {
		t.Fatalf("want 2 pages after reopen, got %d", len(tbl.Meta()))
	}
}
