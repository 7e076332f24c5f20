package store

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// writeColsFile writes times and flat as the columns file dir/name on fs.
func writeColsFile(t testing.TB, fs wal.FS, dir, name string, times []int64, flat []float64) {
	t.Helper()
	f, err := fs.Create(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := writeCols(f, times, flat); err != nil {
		t.Fatal(err)
	}
}

// TestColumnsFileRoundTripBitExact: every float64 bit pattern and every
// int64 time survives a checkpoint and a load unchanged, NaN payloads and
// the sign of zero included.
func TestColumnsFileRoundTripBitExact(t *testing.T) {
	times := []int64{math.MinInt64, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	flat := []float64{
		math.NaN(), math.Float64frombits(0x7ff0000000000001), // quiet and signalling NaN
		math.Float64frombits(0xfff8dead0000beef), math.Copysign(0, -1),
		0, math.Inf(1),
		math.Inf(-1), math.MaxFloat64,
		-math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		1.5, -2.25,
	}
	const dims = 2
	fs := wal.NewMemFS()
	writeColsFile(t, fs, "db", "x.cols", times, flat)
	size, err := fs.Size("db/x.cols")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(times)*8*(1+dims) + 4); size != want {
		t.Fatalf("file is %d bytes, want %d", size, want)
	}
	sh, err := loadShard(fs, "db", shardEntry{File: "x.cols", Lo: 100, Hi: 100 + len(times), Level: 3}, dims)
	if err != nil {
		t.Fatalf("loadShard: %v", err)
	}
	if sh.Level != 3 || len(sh.Times) != len(times) || len(sh.Flat) != len(flat) {
		t.Fatalf("loaded level %d, %d times, %d attrs", sh.Level, len(sh.Times), len(sh.Flat))
	}
	for i, tm := range times {
		if sh.Times[i] != tm {
			t.Fatalf("time %d: %d, want %d", i, sh.Times[i], tm)
		}
	}
	for i, v := range flat {
		if got, want := math.Float64bits(sh.Flat[i]), math.Float64bits(v); got != want {
			t.Fatalf("attr %d: bits %016x, want %016x", i, got, want)
		}
	}
}

// TestColumnsFileRejectsDamage: no single-byte change, truncation or
// extension of a columns file loads, and a rejected load returns no rows.
func TestColumnsFileRejectsDamage(t *testing.T) {
	const dims, n = 2, 3
	rng := rand.New(rand.NewSource(5))
	times := []int64{10, 20, 30}
	flat := make([]float64, n*dims)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	fs := wal.NewMemFS()
	writeColsFile(t, fs, "db", "good.cols", times, flat)
	good := readFile(t, fs, "db/good.cols")
	entry := shardEntry{File: "bad.cols", Lo: 0, Hi: n}
	reject := func(what string, b []byte) {
		t.Helper()
		f, err := fs.Create("db/bad.cols")
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 {
			if _, err := f.WriteAt(b, 0); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		sh, err := loadShard(fs, "db", entry, dims)
		if err == nil {
			t.Fatalf("%s: loaded without an error", what)
		}
		if sh.Times != nil || sh.Flat != nil {
			t.Fatalf("%s: error %v came with rows", what, err)
		}
	}
	for off := range good {
		for _, mask := range []byte{0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xff} {
			b := append([]byte(nil), good...)
			b[off] ^= mask
			reject("flip", b)
		}
	}
	for size := 0; size < len(good); size++ {
		reject("truncation", good[:size])
	}
	reject("extension", append(append([]byte(nil), good...), 0))
	// The same bytes under an entry claiming another row count.
	writeColsFile(t, fs, "db", "bad.cols", times, flat)
	for _, hi := range []int{n - 1, n + 1, math.MaxInt / 8} {
		if _, err := loadShard(fs, "db", shardEntry{File: "bad.cols", Lo: 0, Hi: hi}, dims); err == nil {
			t.Fatalf("a %d-row file loaded as %d rows", n, hi)
		}
	}
}

// FuzzShardFile: loadShard never panics on arbitrary bytes, and any rows it
// accepts re-encode to exactly the bytes it read.
func FuzzShardFile(f *testing.F) {
	seed := wal.NewMemFS()
	writeColsFile(f, seed, "db", "s.cols", []int64{1, 5, 9}, []float64{0.5, math.NaN(), math.Inf(-1)})
	valid := readFile(f, seed, "db/s.cols")
	f.Add(valid, uint8(0), uint16(3))
	f.Add(valid, uint8(1), uint16(3))
	f.Add(valid[:len(valid)-1], uint8(0), uint16(3))
	f.Add([]byte{}, uint8(0), uint16(0))
	f.Add(make([]byte, 20), uint8(0), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, dimsSel uint8, rows uint16) {
		dims := 1 + int(dimsSel%4)
		fs := wal.NewMemFS()
		h, err := fs.Create("db/f.cols")
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if _, err := h.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.Close()
		sh, err := loadShard(fs, "db", shardEntry{File: "f.cols", Lo: 7, Hi: 7 + int(rows)}, dims)
		if err != nil {
			if sh.Times != nil || sh.Flat != nil {
				t.Fatalf("error %v came with rows", err)
			}
			return
		}
		if len(sh.Times) != int(rows) || len(sh.Flat) != int(rows)*dims {
			t.Fatalf("accepted %d times and %d attrs for %d rows of %d", len(sh.Times), len(sh.Flat), rows, dims)
		}
		writeColsFile(t, fs, "db", "re.cols", sh.Times, sh.Flat)
		if re := readFile(t, fs, "db/re.cols"); !bytes.Equal(re, data) {
			t.Fatalf("accepted rows re-encode to %d different bytes", len(re))
		}
	})
}

// TestManifestEntriesStayFixedSize: the MANIFEST grows with the number of
// shards, never with the rows inside them, so merged level-2 shards cost the
// manifest what a freshly sealed shard does.
func TestManifestEntriesStayFixedSize(t *testing.T) {
	fs := wal.NewMemFS()
	opts := Options{FS: fs, Sync: wal.SyncAlways, Shard: core.LiveShardOptions{SealRows: 64, CompactFanout: 4}}
	st, err := Open("db", 2, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(3))
	rows := genRows(rng, 64*16*3, 2)
	maxLevel := 0
	for at := 0; at < len(rows); at += 256 {
		if _, _, _, err := st.AppendBatch(rows[at : at+256]); err != nil {
			t.Fatalf("AppendBatch at %d: %v", at, err)
		}
		drain(st)
		entries := len(st.man.Shards)
		size := len(readFile(t, fs, filepath.Join("db", manifestName)))
		// One entry is a file name, two row numbers and a level: about
		// 130 bytes of indented JSON. The header is under 100.
		if limit := 100 + 160*entries; size > limit {
			t.Fatalf("after %d rows the MANIFEST is %d bytes for %d shard entries (limit %d)", at+256, size, entries, limit)
		}
		for _, e := range st.man.Shards {
			maxLevel = max(maxLevel, e.Level)
		}
	}
	if maxLevel < 2 {
		t.Fatalf("the manifest never held a level-2 shard (max level %d)", maxLevel)
	}
}

// TestOpenRefusesVersion1Manifest: a store whose MANIFEST lists pages files
// (format version 1) is refused with an error naming the version, not read
// as an empty or partial store.
func TestOpenRefusesVersion1Manifest(t *testing.T) {
	fs := wal.NewMemFS()
	if err := fs.MkdirAll("db"); err != nil {
		t.Fatal(err)
	}
	v1 := `{"version": 1, "dims": 1, "shards": [{"file": "shard-000000000000-000000000064.pages",
		"lo": 0, "hi": 64, "lastTime": 64, "pages": [{"id": 0}]}]}`
	f, err := fs.Create("db/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(v1), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	st, err := Open("db", 1, testOpts(fs))
	if err == nil {
		st.Close()
		t.Fatal("Open accepted a version-1 manifest")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error %q does not name the manifest version", err)
	}
}

// syncLog is a wal.FS that records, in order, the calls that decide what a
// crash keeps: file syncs, directory syncs, renames and removals.
type syncLog struct {
	wal.FS
	mu  sync.Mutex
	ops []string
}

func (l *syncLog) record(op, name string) {
	l.mu.Lock()
	l.ops = append(l.ops, op+" "+name)
	l.mu.Unlock()
}

func (l *syncLog) Create(name string) (wal.File, error) {
	f, err := l.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &syncLogFile{File: f, log: l, name: name}, nil
}

func (l *syncLog) Rename(oldname, newname string) error {
	l.record("rename", newname)
	return l.FS.Rename(oldname, newname)
}

func (l *syncLog) Remove(name string) error {
	l.record("remove", name)
	return l.FS.Remove(name)
}

func (l *syncLog) SyncDir(dir string) error {
	l.record("syncdir", dir)
	return l.FS.SyncDir(dir)
}

// since returns the ops recorded from index from on, leaving out the WAL's
// own file and directory syncs, which the appender makes concurrently.
func (l *syncLog) since(from int) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, op := range l.ops[from:] {
		if strings.Contains(op, "db/wal") && !strings.HasPrefix(op, "remove ") {
			continue
		}
		out = append(out, op)
	}
	return out
}

type syncLogFile struct {
	wal.File
	log  *syncLog
	name string
}

func (f *syncLogFile) Sync() error {
	f.log.record("sync", f.name)
	return f.File.Sync()
}

// TestCheckpointSyncOrder: a checkpoint and a compaction make their shard
// file durable, then its directory entry, then publish the manifest by a
// rename whose directory is synced before anything is removed — WAL
// segments for a checkpoint, constituent shard files for a compaction.
func TestCheckpointSyncOrder(t *testing.T) {
	rec := &syncLog{FS: wal.NewMemFS()}
	opts := Options{
		FS:          rec,
		Sync:        wal.SyncAlways,
		SegmentSize: 256, // several WAL segments per shard, so truncation removes some
		Shard:       core.LiveShardOptions{SealRows: 64, CompactFanout: 2},
	}
	st, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	rows := genRows(rand.New(rand.NewSource(8)), 128, 1)
	publish := []string{"syncdir db", "sync db/MANIFEST.tmp", "rename db/MANIFEST", "syncdir db"}
	expect := func(ops []string, file, removed string) {
		t.Helper()
		at := -1
		for i, op := range ops {
			if op == "sync db/"+file {
				at = i
				break
			}
		}
		if at < 0 {
			t.Fatalf("%s was never synced: %q", file, ops)
		}
		got := ops[at+1:]
		if len(got) < len(publish)+1 {
			t.Fatalf("after syncing %s: %q, want %q then removals", file, got, publish)
		}
		for i, want := range publish {
			if got[i] != want {
				t.Fatalf("after syncing %s: %q, want %q then removals", file, got, publish)
			}
		}
		if !strings.HasPrefix(got[len(publish)], "remove db/"+removed) {
			t.Fatalf("after publishing %s: %q, want a removal under db/%s", file, got[len(publish)], removed)
		}
	}

	feed := func(rows []Row) {
		for _, r := range rows {
			if _, _, err := st.Append(r.T, r.Attrs); err != nil {
				t.Fatal(err)
			}
		}
		drain(st)
	}
	feed(rows[:64])
	expect(rec.since(0), shardFileName(0, 64, 0), "wal/")
	mark := len(rec.ops)
	feed(rows[64:])
	if st.Engine().Compactions() == 0 {
		t.Fatal("two level-0 shards at fanout 2 did not compact")
	}
	ops := rec.since(mark)
	expect(ops, shardFileName(64, 128, 0), "wal/")
	expect(ops, shardFileName(0, 128, 1), "shard-")
}
