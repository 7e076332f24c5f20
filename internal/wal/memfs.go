package wal

import (
	"fmt"
	"io/fs"
	"path"
	"sort"
	"strings"
	"sync"
)

// MemFS is an in-memory FS for tests. It models only what the durability
// layer needs: flat files addressed by cleaned slash paths, atomic rename,
// and directory listings. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memFile
	dirs  map[string]bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

func memClean(name string) string {
	return path.Clean(strings.ReplaceAll(name, "\\", "/"))
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &memFile{fs: m, name: name}
	m.files[name] = f
	return &memHandle{f: f}, nil
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &memHandle{f: f}, nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(dir string) ([]string, error) {
	dir = memClean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] && dir != "." {
		// A directory also exists if any file lives under it.
		found := false
		for name := range m.files {
			if path.Dir(name) == dir {
				found = true
				break
			}
		}
		if !found {
			return nil, &fs.PathError{Op: "readdir", Path: dir, Err: fs.ErrNotExist}
		}
	}
	var names []string
	for name := range m.files {
		if path.Dir(name) == dir {
			names = append(names, path.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Size implements FS.
func (m *MemFS) Size(name string) (int64, error) {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return 0, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = memClean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

// Rename implements FS.
func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = memClean(oldname), memClean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	delete(m.files, oldname)
	f.name = newname
	m.files[newname] = f
	return nil
}

// MkdirAll implements FS.
func (m *MemFS) MkdirAll(dir string) error {
	dir = memClean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	for dir != "." && dir != "/" {
		m.dirs[dir] = true
		dir = path.Dir(dir)
	}
	return nil
}

// SyncDir implements FS. MemFS has no volatile state to flush: every
// Create, Rename and Remove is durable the moment it returns.
func (m *MemFS) SyncDir(string) error { return nil }

// memFile holds the shared content; memHandle is one open descriptor.
// Handles opened before a Rename keep writing to the same content, matching
// POSIX semantics.
type memFile struct {
	fs   *MemFS
	name string
	data []byte
}

type memHandle struct {
	f      *memFile
	closed bool
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	if off >= int64(len(h.f.data)) {
		return 0, fmt.Errorf("memfs: read at %d past EOF %d: %w", off, len(h.f.data), fs.ErrInvalid)
	}
	n := copy(p, h.f.data[off:])
	if n < len(p) {
		return n, fmt.Errorf("memfs: short read: %w", fs.ErrInvalid)
	}
	return n, nil
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if h.closed {
		return 0, fs.ErrClosed
	}
	if off < 0 {
		return 0, fmt.Errorf("memfs: negative offset %d", off)
	}
	if need := off + int64(len(p)); need > int64(len(h.f.data)) {
		grown := make([]byte, need)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	copy(h.f.data[off:], p)
	return len(p), nil
}

func (h *memHandle) Truncate(size int64) error {
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	switch {
	case size < 0:
		return fmt.Errorf("memfs: negative truncate size %d", size)
	case size <= int64(len(h.f.data)):
		h.f.data = h.f.data[:size]
	default:
		grown := make([]byte, size)
		copy(grown, h.f.data)
		h.f.data = grown
	}
	return nil
}

func (h *memHandle) Sync() error {
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	if h.closed {
		return fs.ErrClosed
	}
	return nil
}

func (h *memHandle) Close() error {
	h.f.fs.mu.Lock()
	defer h.f.fs.mu.Unlock()
	h.closed = true
	return nil
}
