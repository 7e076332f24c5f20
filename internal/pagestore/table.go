package pagestore

import (
	"errors"
	"fmt"
)

// PageMeta summarizes one heap page for time-range pruning (the role of the
// paper's auxiliary index tables).
type PageMeta struct {
	ID       PageID
	MinTime  int64
	MaxTime  int64
	NumSlots int
}

// Table is a heap file of record tuples in arrival order: page i holds a
// contiguous, time-ascending run of records. Not safe for concurrent use.
type Table struct {
	pool *BufferPool
	dims int
	meta []PageMeta

	cur      *Frame // current fill page, pinned until sealed
	lastTime int64
	count    int
}

// CreateTable starts an empty heap table for d-dimensional records.
func CreateTable(pool *BufferPool, dims int) (*Table, error) {
	if dims < 1 {
		return nil, errors.New("pagestore: table needs at least one attribute")
	}
	return &Table{pool: pool, dims: dims, lastTime: -1 << 62}, nil
}

// Dims returns the attribute dimensionality.
func (t *Table) Dims() int { return t.dims }

// Len returns the number of stored records.
func (t *Table) Len() int { return t.count }

// NumPages returns the number of heap pages (including the fill page).
func (t *Table) NumPages() int {
	n := len(t.meta)
	if t.cur != nil {
		n++
	}
	return n
}

// Meta returns the sealed page summaries (excluding the open fill page).
func (t *Table) Meta() []PageMeta { return t.meta }

// Append stores one record; times must be strictly increasing.
func (t *Table) Append(id uint32, time int64, attrs []float64) error {
	if len(attrs) != t.dims {
		return fmt.Errorf("pagestore: append got %d attrs, want %d", len(attrs), t.dims)
	}
	if time <= t.lastTime {
		return fmt.Errorf("pagestore: append time %d not increasing past %d", time, t.lastTime)
	}
	var buf [4 + 8 + 8*64]byte
	if TupleSize(t.dims) > len(buf) {
		return fmt.Errorf("pagestore: dimensionality %d exceeds tuple buffer", t.dims)
	}
	tuple := EncodeTuple(buf[:], id, time, attrs)
	if t.cur == nil {
		if err := t.openFillPage(); err != nil {
			return err
		}
	}
	if _, ok := SlottedPage(t.cur.Data).Insert(tuple); !ok {
		if err := t.Seal(); err != nil {
			return err
		}
		if err := t.openFillPage(); err != nil {
			return err
		}
		if _, ok := SlottedPage(t.cur.Data).Insert(tuple); !ok {
			return errors.New("pagestore: tuple larger than an empty page")
		}
	}
	t.lastTime = time
	t.count++
	return nil
}

func (t *Table) openFillPage() error {
	f, err := t.pool.Alloc()
	if err != nil {
		return err
	}
	InitSlotted(f.Data)
	t.cur = f
	return nil
}

// Seal closes the current fill page, checksums it, and records its summary.
// Append reopens a fresh page on the next call. Seal is idempotent.
func (t *Table) Seal() error {
	if t.cur == nil {
		return nil
	}
	p := SlottedPage(t.cur.Data)
	n := p.NumSlots()
	if n == 0 {
		t.pool.Unpin(t.cur, false)
		t.cur = nil
		return nil
	}
	attrs := make([]float64, t.dims)
	_, minT := DecodeTuple(p.Tuple(0), attrs)
	_, maxT := DecodeTuple(p.Tuple(n-1), attrs)
	p.SetChecksum()
	t.meta = append(t.meta, PageMeta{ID: t.cur.ID, MinTime: minT, MaxTime: maxT, NumSlots: n})
	t.pool.Unpin(t.cur, true)
	t.cur = nil
	return nil
}

// VisitFunc receives one decoded record; attrs aliases a scratch buffer
// valid only during the call. Returning false stops the scan.
type VisitFunc func(id uint32, time int64, attrs []float64) bool

// ScanRange visits records with time in [t1, t2] in ascending time order,
// fetching only pages whose summary overlaps the range.
func (t *Table) ScanRange(t1, t2 int64, fn VisitFunc) error {
	return t.scan(t1, t2, false, fn)
}

// ScanRangeBackward visits records with time in [t1, t2] in descending time
// order.
func (t *Table) ScanRangeBackward(t1, t2 int64, fn VisitFunc) error {
	return t.scan(t1, t2, true, fn)
}

func (t *Table) scan(t1, t2 int64, backward bool, fn VisitFunc) error {
	if err := t.Seal(); err != nil {
		return err
	}
	attrs := make([]float64, t.dims)
	visitPage := func(pm PageMeta) (bool, error) {
		f, err := t.pool.Fetch(pm.ID)
		if err != nil {
			return false, err
		}
		defer t.pool.Unpin(f, false)
		p := SlottedPage(f.Data)
		if err := p.VerifyChecksum(); err != nil {
			return false, fmt.Errorf("page %d: %w", pm.ID, err)
		}
		n := p.NumSlots()
		for s := 0; s < n; s++ {
			slot := s
			if backward {
				slot = n - 1 - s
			}
			id, tm := DecodeTuple(p.Tuple(slot), attrs)
			if tm < t1 || tm > t2 {
				continue
			}
			if !fn(id, tm, attrs) {
				return false, nil
			}
		}
		return true, nil
	}
	if backward {
		for i := len(t.meta) - 1; i >= 0; i-- {
			pm := t.meta[i]
			if pm.MaxTime < t1 || pm.MinTime > t2 {
				continue
			}
			cont, err := visitPage(pm)
			if err != nil || !cont {
				return err
			}
		}
		return nil
	}
	for _, pm := range t.meta {
		if pm.MaxTime < t1 || pm.MinTime > t2 {
			continue
		}
		cont, err := visitPage(pm)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}
