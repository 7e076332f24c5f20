// Package pagestore is a small page-structured storage engine held in
// memory: an array of fixed-size pages, an LRU buffer pool with pin counts
// and I/O statistics, slotted data pages with checksums, a heap table of
// time-ordered record tuples, and a paged hierarchical summary index for
// range top-k queries. Nothing is written to disk and nothing is reopened; a
// store lives as long as the process that loaded it.
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
)

// PageSize is the fixed page size in bytes (PostgreSQL's default).
const PageSize = 8192

// PageID identifies a page within a MemBacking.
type PageID uint32

// ErrPageRange reports an out-of-range page access.
var ErrPageRange = errors.New("pagestore: page id out of range")

// MemBacking is the flat array of pages behind a buffer pool: a buffer-pool
// miss is a ReadPage, so its count is the experiment's page-read metric. It
// is not safe for concurrent use; the buffer pool serializes access.
type MemBacking struct {
	pages [][]byte
}

// NewMemBacking returns an empty in-memory store.
func NewMemBacking() *MemBacking { return &MemBacking{} }

// ReadPage copies page id into buf (len(buf) == PageSize).
func (m *MemBacking) ReadPage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(buf, m.pages[id])
	return nil
}

// WritePage copies buf into page id.
func (m *MemBacking) WritePage(id PageID, buf []byte) error {
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageRange, id, len(m.pages))
	}
	copy(m.pages[id], buf)
	return nil
}

// Alloc appends a zeroed page and returns its id.
func (m *MemBacking) Alloc() PageID {
	m.pages = append(m.pages, make([]byte, PageSize))
	return PageID(len(m.pages) - 1)
}
