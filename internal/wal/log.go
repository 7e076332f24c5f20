package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// segmentName renders the canonical file name for a segment whose first
// record has the given LSN.
func segmentName(base uint64) string { return fmt.Sprintf("%020d.wal", base) }

// parseSegmentName extracts the base LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") || len(name) != 24 {
		return 0, false
	}
	base, err := strconv.ParseUint(name[:20], 10, 64)
	if err != nil {
		return 0, false
	}
	return base, true
}

// segment is one sealed (no longer written) segment on disk.
type segment struct {
	name string
	base uint64 // LSN of its first record
}

// Log is a segmented write-ahead log. Append buffers a frame; Commit writes
// all buffered frames with one WriteAt and makes them durable per the sync
// policy. Safe for concurrent use, though the durable engines serialize
// appends themselves.
type Log struct {
	fs   FS
	dir  string
	opts Options

	mu      sync.Mutex
	sealed  []segment // fully-written segments, oldest first
	seg     File      // segment being appended
	segBase uint64    // LSN of seg's first record
	segSize int64     // committed bytes in seg
	next    uint64    // LSN the next Append receives
	buf     []byte    // appended-but-uncommitted frames
	nbuf    int       // records in buf
	dirty   bool      // committed bytes not yet fsynced
	closed  bool

	stop     chan struct{} // interval-sync ticker shutdown
	tickerWG sync.WaitGroup
}

// Open opens (or creates) the log in dir and repairs any torn tail: the
// first frame that fails its length or checksum validation truncates its
// segment, and every later segment is removed. The returned log appends at
// the LSN after the last valid record (opts.Base for a fresh log). Only
// frame validation triggers repair; an I/O error while scanning fails Open
// so a transient read fault can never truncate durable records.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{fs: opts.FS, dir: dir, opts: opts}
	if err := l.load(); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.tickerWG.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

// load scans dir, repairs the tail, and positions the log for appending.
func (l *Log) load() error {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: listing %s: %w", l.dir, err)
	}
	var segs []segment
	for _, name := range names {
		if base, ok := parseSegmentName(name); ok {
			segs = append(segs, segment{name: name, base: base})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	if len(segs) == 0 {
		return l.startSegment(l.opts.Base)
	}

	// Scan forward; the first torn frame ends the durable log.
	for i, s := range segs {
		records, validBytes, clean, err := l.scanSegment(s)
		if err != nil {
			return err
		}
		if i+1 < len(segs) && clean && segs[i+1].base != s.base+uint64(records) {
			// A gap between segments (e.g. a lost file) also ends the log.
			clean = false
		}
		if clean {
			continue
		}
		// Truncate this segment at the torn frame and drop later segments.
		if err := l.truncateSegment(s, validBytes); err != nil {
			return err
		}
		for _, later := range segs[i+1:] {
			if err := l.fs.Remove(filepath.Join(l.dir, later.name)); err != nil {
				return fmt.Errorf("wal: removing %s: %w", later.name, err)
			}
		}
		segs = segs[:i+1]
		break
	}

	// Reopen the final segment for appending; earlier ones are sealed.
	last := segs[len(segs)-1]
	records, validBytes, _, err := l.scanSegment(last)
	if err != nil {
		return err
	}
	f, err := l.fs.Open(filepath.Join(l.dir, last.name))
	if err != nil {
		return fmt.Errorf("wal: opening %s: %w", last.name, err)
	}
	l.sealed = append([]segment(nil), segs[:len(segs)-1]...)
	l.seg = f
	l.segBase = last.base
	l.segSize = validBytes
	l.next = last.base + uint64(records)
	return nil
}

// scanSegment walks a segment's frames. It returns the record count, the
// byte length of the valid prefix, and whether the whole file verified.
func (l *Log) scanSegment(s segment) (records int, validBytes int64, clean bool, err error) {
	path := filepath.Join(l.dir, s.name)
	size, err := l.fs.Size(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: sizing %s: %w", s.name, err)
	}
	f, err := l.fs.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("wal: opening %s: %w", s.name, err)
	}
	defer f.Close()
	data := make([]byte, size)
	if size > 0 {
		n, rerr := f.ReadAt(data, 0)
		switch {
		case rerr == nil:
		case errors.Is(rerr, io.EOF):
			// The file is shorter than Size reported: scan the bytes that
			// were read and let frame validation find the torn tail.
			data = data[:n]
		default:
			// A read failure is not a torn tail. Repairing here would
			// truncate durable fsynced records over a transient I/O error,
			// so fail Open and leave the segment untouched.
			return 0, 0, false, fmt.Errorf("wal: reading %s: %w", s.name, rerr)
		}
	}
	off := 0
	for off < len(data) {
		_, n, ok := parseFrame(data[off:])
		if !ok {
			return records, int64(off), false, nil
		}
		off += n
		records++
	}
	return records, int64(off), true, nil
}

// truncateSegment clips a torn segment to its valid prefix and syncs it.
func (l *Log) truncateSegment(s segment, validBytes int64) error {
	f, err := l.fs.Open(filepath.Join(l.dir, s.name))
	if err != nil {
		return fmt.Errorf("wal: opening %s for repair: %w", s.name, err)
	}
	defer f.Close()
	if err := f.Truncate(validBytes); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", s.name, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing repaired %s: %w", s.name, err)
	}
	return nil
}

// startSegment creates a fresh segment whose first record will be base.
func (l *Log) startSegment(base uint64) error {
	name := segmentName(base)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return fmt.Errorf("wal: creating segment %s: %w", name, err)
	}
	// The segment's name must be durable before any record in it is
	// acknowledged.
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing %s after creating %s: %w", l.dir, name, err)
	}
	l.seg = f
	l.segBase = base
	l.segSize = 0
	l.next = base
	return nil
}

// Base returns the LSN of the oldest record still held by the log.
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.sealed) > 0 {
		return l.sealed[0].base
	}
	return l.segBase
}

// Next returns the LSN the next Append will receive.
func (l *Log) Next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Append buffers one row record and returns its LSN. The record is not
// durable — not even written — until Commit.
func (l *Log) Append(t int64, attrs []float64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.next
	l.buf = encodeAppend(l.buf, t, attrs)
	l.nbuf++
	l.next++
	return lsn, nil
}

// Commit writes all buffered records with a single WriteAt and applies the
// sync policy (SyncAlways fsyncs before returning). It also rotates the
// segment once it exceeds Options.SegmentSize.
func (l *Log) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitLocked()
}

func (l *Log) commitLocked() error {
	if l.closed {
		return ErrClosed
	}
	if len(l.buf) > 0 {
		n, err := l.seg.WriteAt(l.buf, l.segSize)
		if err != nil {
			// A partial write leaves a torn frame on disk; the open repair
			// path truncates it. The in-memory state stays consistent with
			// what was attempted so a retry rewrites the same range.
			return fmt.Errorf("wal: writing segment %s: %w", segmentName(l.segBase), err)
		}
		l.segSize += int64(n)
		l.buf = l.buf[:0]
		l.nbuf = 0
		l.dirty = true
	}
	if l.opts.Sync == SyncAlways && l.dirty {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: syncing segment %s: %w", segmentName(l.segBase), err)
		}
		l.dirty = false
	}
	if l.segSize >= l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked seals the current segment and starts a new one at l.next.
// The sealed segment is synced regardless of policy so only the active
// segment can ever be torn.
func (l *Log) rotateLocked() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: syncing segment %s before rotation: %w", segmentName(l.segBase), err)
	}
	l.dirty = false
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: closing segment %s: %w", segmentName(l.segBase), err)
	}
	l.sealed = append(l.sealed, segment{name: segmentName(l.segBase), base: l.segBase})
	return l.startSegment(l.next)
}

// Sync forces buffered records to disk and fsyncs, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if len(l.buf) > 0 {
		if err := l.commitLocked(); err != nil {
			return err
		}
	}
	if l.dirty {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: syncing segment %s: %w", segmentName(l.segBase), err)
		}
		l.dirty = false
	}
	return nil
}

// TruncateBefore advances the low-water mark: whole segments whose records
// all have LSN < lsn are deleted. The active segment is never deleted, so
// the surviving base may be below lsn; recovery replays from its own mark.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for len(l.sealed) > 0 {
		// The first sealed segment ends where its successor begins.
		end := l.segBase
		if len(l.sealed) > 1 {
			end = l.sealed[1].base
		}
		if end > lsn {
			break
		}
		if err := l.fs.Remove(filepath.Join(l.dir, l.sealed[0].name)); err != nil {
			return fmt.Errorf("wal: removing %s: %w", l.sealed[0].name, err)
		}
		l.sealed = l.sealed[1:]
	}
	return nil
}

// syncLoop is the SyncInterval background fsync.
func (l *Log) syncLoop() {
	defer l.tickerWG.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				if err := l.seg.Sync(); err == nil {
					l.dirty = false
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close commits and syncs any pending records, then closes the segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	var err error
	if len(l.buf) > 0 {
		err = l.commitLocked()
	}
	if err == nil && l.dirty {
		if serr := l.seg.Sync(); serr != nil {
			err = fmt.Errorf("wal: syncing segment %s: %w", segmentName(l.segBase), serr)
		} else {
			l.dirty = false
		}
	}
	l.closed = true
	if cerr := l.seg.Close(); err == nil && cerr != nil {
		err = cerr
	}
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		l.tickerWG.Wait()
	}
	return err
}
