package wal

import (
	"io"
	"os"
	"path/filepath"
)

// File is the random-access file contract the durability layer writes
// through. *os.File satisfies it directly; MemFS provides an in-memory
// implementation for tests, and package faultfs wraps either with injectable
// torn writes, short reads, bit flips and crash points, so checkpoint
// columns files, manifests and WAL segments share one fault-injection
// surface.
type File interface {
	io.ReaderAt
	io.WriterAt
	// Truncate clips (or zero-extends) the file to size bytes.
	Truncate(size int64) error
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem surface the durability layer runs on. Paths are plain
// strings joined with filepath.Join by callers; implementations need not be
// safe for concurrent use of the same file, but independent files may be
// used from different goroutines (the WAL writer and the checkpointer).
type FS interface {
	// Create opens name for read/write, creating it and truncating any
	// existing content.
	Create(name string) (File, error)
	// Open opens an existing file for read/write.
	Open(name string) (File, error)
	// ReadDir returns the names (not full paths) of dir's entries in
	// lexical order.
	ReadDir(dir string) ([]string, error)
	// Size returns the current size of the named file.
	Size(name string) (int64, error)
	// Remove deletes the named file.
	Remove(name string) error
	// Rename atomically replaces newname with oldname's content.
	Rename(oldname, newname string) error
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// SyncDir makes dir's entries durable: a file's own Sync does not
	// persist its name, and a Rename is not durable until its directory is
	// synced.
	SyncDir(dir string) error
}

// OSFS is the production FS backed by the operating system.
type OSFS struct{}

// Create implements FS.
func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

// Open implements FS.
func (OSFS) Open(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR, 0)
}

// ReadDir implements FS.
func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// Size implements FS.
func (OSFS) Size(name string) (int64, error) {
	st, err := os.Stat(name)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// Remove implements FS.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// Rename implements FS.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// MkdirAll implements FS.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(filepath.Clean(dir), 0o755) }

// SyncDir implements FS.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
