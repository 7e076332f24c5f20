// Package pagestore is a small page-structured embedded storage engine: a
// backing store of fixed-size pages, an LRU buffer pool with pin counts and
// I/O statistics, slotted data pages with checksums, a heap table of
// time-ordered record tuples, and a paged hierarchical summary index for
// range top-k queries.
//
// It substitutes for the PostgreSQL backend of the paper's §VI-C: the DBMS
// experiment contrasts linear page scans (T-Base) against index-guided hops
// (T-Hop) inside a page-structured engine, which is exactly the cost
// structure this package reproduces — while additionally exposing page-read
// counts as a hardware-independent metric.
package pagestore

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// PageSize is the fixed page size in bytes (PostgreSQL's default).
const PageSize = 8192

// PageID identifies a page within a backing store.
type PageID uint32

// Backing is a flat array of pages. Implementations need not be safe for
// concurrent use; the buffer pool serializes access.
type Backing interface {
	// ReadPage copies page id into buf (len(buf) == PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage copies buf into page id.
	WritePage(id PageID, buf []byte) error
	// Alloc appends a zeroed page and returns its id.
	Alloc() (PageID, error)
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases resources.
	Close() error
}

// ErrPageRange reports an out-of-range page access.
var ErrPageRange = errors.New("pagestore: page id out of range")

// MemBacking is an in-memory Backing.
type MemBacking struct {
	pages [][]byte
}

// NewMemBacking returns an empty in-memory store.
func NewMemBacking() *MemBacking { return &MemBacking{} }

// ReadPage implements Backing.
func (m *MemBacking) ReadPage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage implements Backing.
func (m *MemBacking) WritePage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Alloc implements Backing.
func (m *MemBacking) Alloc() (PageID, error) {
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1), nil
}

// NumPages implements Backing.
func (m *MemBacking) NumPages() int { return len(m.pages) }

// Close implements Backing.
func (m *MemBacking) Close() error { return nil }

// BlockFile is the random-access file contract FileBacking stores pages
// through. *os.File satisfies it directly; the method set is intentionally
// identical to wal.File, so the WAL's in-memory and fault-injection
// filesystems can back a page store in tests without an import cycle.
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FileBacking stores pages in a file.
type FileBacking struct {
	f BlockFile
	n int
}

// NewFileBacking creates (truncating) a file-backed store at path.
func NewFileBacking(path string) (*FileBacking, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &FileBacking{f: f}, nil
}

// NewFileBackingOn wraps an already-open file of the given size (in bytes,
// which must be a whole number of pages), so a page store can run over an
// abstract filesystem such as wal.MemFS or faultfs; Close closes f.
func NewFileBackingOn(f BlockFile, size int64) (*FileBacking, error) {
	if size%PageSize != 0 {
		return nil, fmt.Errorf("pagestore: size %d is not page-aligned", size)
	}
	return &FileBacking{f: f, n: int(size / PageSize)}, nil
}

// OpenFileBacking opens an existing file-backed store; the file size must be
// a whole number of pages.
func OpenFileBacking(path string) (*FileBacking, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pagestore: %s size %d is not page-aligned", path, st.Size())
	}
	return &FileBacking{f: f, n: int(st.Size() / PageSize)}, nil
}

// ReadPage implements Backing.
func (fb *FileBacking) ReadPage(id PageID, buf []byte) error {
	if int(id) >= fb.n {
		return fmt.Errorf("%w: read %d of %d", ErrPageRange, id, fb.n)
	}
	_, err := fb.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// WritePage implements Backing.
func (fb *FileBacking) WritePage(id PageID, buf []byte) error {
	if int(id) >= fb.n {
		return fmt.Errorf("%w: write %d of %d", ErrPageRange, id, fb.n)
	}
	_, err := fb.f.WriteAt(buf[:PageSize], int64(id)*PageSize)
	return err
}

// Alloc implements Backing.
func (fb *FileBacking) Alloc() (PageID, error) {
	id := PageID(fb.n)
	if err := fb.f.Truncate(int64(fb.n+1) * PageSize); err != nil {
		return 0, err
	}
	fb.n++
	return id, nil
}

// NumPages implements Backing.
func (fb *FileBacking) NumPages() int { return fb.n }

// Sync flushes written pages to stable storage.
func (fb *FileBacking) Sync() error { return fb.f.Sync() }

// Close implements Backing.
func (fb *FileBacking) Close() error { return fb.f.Close() }
