// Package faultfs wraps a wal.FS with injectable faults: crash points at
// every write boundary (with torn partial writes), short reads, bit flips,
// and targeted write failures. It drives the store's crash-recovery tests
// (WAL segments, checkpoint columns files and manifests).
//
// The crash model matches a process kill on a journaling filesystem: a
// byte budget counts down across all writes; the write that exhausts it is
// applied only partially (a torn write) and every later operation, file and
// directory syncs included, fails with ErrCrashed. Whatever was applied
// before the crash is the durable state, synced or not — tests "recover" by
// opening the inner filesystem again. Sync ordering is therefore not
// checked here; the store checks it with a recording filesystem.
package faultfs

import (
	"errors"
	"fmt"
	"path"
	"sync"

	"repro/internal/wal"
)

// ErrCrashed is returned by every operation after the crash point.
var ErrCrashed = errors.New("faultfs: crashed")

// ErrInjected is the base error for targeted (non-crash) fault injections.
var ErrInjected = errors.New("faultfs: injected fault")

// WriteOp records one completed write boundary: a WriteAt, Truncate or
// Sync that the crash budget could be pointed at.
type WriteOp struct {
	Name string // base name of the file
	Op   string // "write", "truncate" or "sync"
	Off  int64  // write offset (0 for truncate/sync)
	Len  int64  // bytes written (new size for truncate, 0 for sync)
}

// FS wraps an inner wal.FS with fault injection. The zero value is not
// usable; call New. Safe for concurrent use.
type FS struct {
	inner wal.FS

	mu           sync.Mutex
	crashed      bool
	budget       int64 // bytes writable before crashing; <0 = unlimited
	bytesWritten int64
	ops          []WriteOp
	failWrites   map[string]error // base name -> error for next WriteAt
	shortReads   map[string]int64 // base name -> reads at/past offset fail
}

// New wraps inner with fault injection; no faults are armed initially.
func New(inner wal.FS) *FS {
	return &FS{
		inner:      inner,
		budget:     -1,
		failWrites: make(map[string]error),
		shortReads: make(map[string]int64),
	}
}

// Inner returns the wrapped filesystem — the durable state after a crash.
func (f *FS) Inner() wal.FS { return f.inner }

// SetCrashBudget arms a crash after n more written bytes: the write that
// would exceed the budget is applied partially (torn) and everything after
// it fails with ErrCrashed. n = 0 crashes on the next write.
func (f *FS) SetCrashBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.budget = n
}

// CrashNow fails all subsequent operations immediately.
func (f *FS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// Crashed reports whether the crash point has been reached.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// BytesWritten returns the total bytes applied through WriteAt so far —
// the range a differential test sweeps its crash budgets over.
func (f *FS) BytesWritten() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bytesWritten
}

// Ops returns a copy of the recorded write boundaries.
func (f *FS) Ops() []WriteOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]WriteOp(nil), f.ops...)
}

// FailWrites makes the next WriteAt on the named file (base name) return
// err without applying any bytes. A nil err clears the injection.
func (f *FS) FailWrites(name string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil {
		delete(f.failWrites, name)
		return
	}
	f.failWrites[name] = err
}

// ShortReads makes ReadAt on the named file (base name) fail whenever the
// requested range extends at or past offset from. A negative from clears
// the injection.
func (f *FS) ShortReads(name string, from int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from < 0 {
		delete(f.shortReads, name)
		return
	}
	f.shortReads[name] = from
}

// FlipBit XORs mask into the byte at off of the named file, corrupting it
// in place on the inner filesystem (so the fault persists across a
// simulated crash).
func (f *FS) FlipBit(name string, off int64, mask byte) error {
	h, err := f.inner.Open(name)
	if err != nil {
		return err
	}
	defer h.Close()
	var b [1]byte
	if _, err := h.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= mask
	_, err = h.WriteAt(b[:], off)
	return err
}

// checkAlive returns ErrCrashed after the crash point.
func (f *FS) checkAlive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// Create implements wal.FS.
func (f *FS) Create(name string) (wal.File, error) {
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	h, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: path.Base(name), inner: h}, nil
}

// Open implements wal.FS.
func (f *FS) Open(name string) (wal.File, error) {
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	h, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, name: path.Base(name), inner: h}, nil
}

// ReadDir implements wal.FS.
func (f *FS) ReadDir(dir string) ([]string, error) {
	if err := f.checkAlive(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(dir)
}

// Size implements wal.FS.
func (f *FS) Size(name string) (int64, error) {
	if err := f.checkAlive(); err != nil {
		return 0, err
	}
	return f.inner.Size(name)
}

// Remove implements wal.FS.
func (f *FS) Remove(name string) error {
	if err := f.checkAlive(); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

// Rename implements wal.FS.
func (f *FS) Rename(oldname, newname string) error {
	if err := f.checkAlive(); err != nil {
		return err
	}
	return f.inner.Rename(oldname, newname)
}

// MkdirAll implements wal.FS.
func (f *FS) MkdirAll(dir string) error {
	if err := f.checkAlive(); err != nil {
		return err
	}
	return f.inner.MkdirAll(dir)
}

// SyncDir implements wal.FS.
func (f *FS) SyncDir(dir string) error {
	if err := f.checkAlive(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// file wraps one open handle with the FS's armed faults.
type file struct {
	fs    *FS
	name  string
	inner wal.File
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	f := h.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return 0, ErrCrashed
	}
	if from, ok := f.shortReads[h.name]; ok && off+int64(len(p)) > from {
		f.mu.Unlock()
		if off >= from {
			return 0, fmt.Errorf("%w: short read of %s at %d", ErrInjected, h.name, off)
		}
		n, _ := h.inner.ReadAt(p[:from-off], off)
		return n, fmt.Errorf("%w: short read of %s at %d", ErrInjected, h.name, off)
	}
	f.mu.Unlock()
	return h.inner.ReadAt(p, off)
}

func (h *file) WriteAt(p []byte, off int64) (int, error) {
	f := h.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return 0, ErrCrashed
	}
	if err, ok := f.failWrites[h.name]; ok {
		delete(f.failWrites, h.name)
		f.mu.Unlock()
		return 0, err
	}
	n := int64(len(p))
	torn := false
	if f.budget >= 0 && n > f.budget {
		n = f.budget
		torn = true
		f.crashed = true
	}
	if f.budget >= 0 {
		f.budget -= n
	}
	f.bytesWritten += n
	f.ops = append(f.ops, WriteOp{Name: h.name, Op: "write", Off: off, Len: n})
	f.mu.Unlock()

	wrote := 0
	if n > 0 {
		var err error
		wrote, err = h.inner.WriteAt(p[:n], off)
		if err != nil {
			return wrote, err
		}
	}
	if torn {
		return wrote, fmt.Errorf("%w: torn write of %s at %d (%d of %d bytes)", ErrCrashed, h.name, off, n, len(p))
	}
	return wrote, nil
}

func (h *file) Truncate(size int64) error {
	f := h.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.ops = append(f.ops, WriteOp{Name: h.name, Op: "truncate", Len: size})
	f.mu.Unlock()
	return h.inner.Truncate(size)
}

func (h *file) Sync() error {
	f := h.fs
	f.mu.Lock()
	if f.crashed {
		f.mu.Unlock()
		return ErrCrashed
	}
	f.ops = append(f.ops, WriteOp{Name: h.name, Op: "sync"})
	f.mu.Unlock()
	return h.inner.Sync()
}

func (h *file) Close() error { return h.inner.Close() }
