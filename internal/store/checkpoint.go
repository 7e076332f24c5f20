package store

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/wal"
)

// manifestName is the checkpoint manifest file, atomically replaced (write
// to a temp name, sync, rename) on every checkpoint.
const manifestName = "MANIFEST"

// manifestVersion is the manifest format this build reads and writes:
// version 2 names one columns file per shard. Version 1 manifests listed a
// summary of every page of every shard's pages file and are refused.
const manifestVersion = 2

// manifest is the durable index of checkpointed sealed shards and standing
// subscriptions. A shard's columns file is referenced only after its
// contents are synced, and the WAL is truncated only after the manifest
// referencing the shard is durable.
type manifest struct {
	Version int          `json:"version"`
	Dims    int          `json:"dims"`
	Shards  []shardEntry `json:"shards"`

	// Base is the absolute stream row where retained history starts: rows
	// below it were retired by bounded retention and their columns files
	// removed. Shards tile contiguously from Base; WAL LSNs are absolute, so
	// recovery of a fully retired store still resumes at the right row.
	Base int `json:"base,omitempty"`

	// Gen counts manifest publications; with retention enabled each
	// generation is also written as a MANIFEST.<gen> backup before it
	// replaces MANIFEST, so the newest backup is byte-identical to the
	// live manifest and a corrupted MANIFEST recovers from it losslessly.
	Gen uint64 `json:"gen,omitempty"`

	// Subs are the durable standing-query registrations; NextSub is the
	// registry's id high-water mark, persisted so retired ids are never
	// reissued (a reissue would alias a client's resume onto an unrelated
	// subscription).
	NextSub uint64     `json:"nextSub,omitempty"`
	Subs    []subEntry `json:"subs,omitempty"`
}

// shardEntry describes one checkpointed sealed shard. Its size does not
// depend on the shard's row count: the rows live in the columns file.
type shardEntry struct {
	// File is the columns file name within the store directory.
	File string `json:"file"`
	// Lo and Hi are the shard's half-open absolute row range; the file's
	// i-th row is row Lo+i.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Level is the shard's LSM level: 0 for a plain sealed shard, l+1 for
	// the merge of a run of level-l shards (see core.LiveShardOptions.
	// CompactFanout).
	Level int `json:"level,omitempty"`
}

// shardFileName names a shard's columns file by its absolute row range and
// level. Merged shards carry their level so a range recompacted after a
// crash can never collide with a live constituent's file.
func shardFileName(lo, hi, level int) string {
	if level == 0 {
		return fmt.Sprintf("shard-%012d-%012d.cols", lo, hi)
	}
	return fmt.Sprintf("shard-%012d-%012d.L%d.cols", lo, hi, level)
}

// A columns file holds one shard's rows as the engine holds them: the n
// times as little-endian int64, then the n·dims row-major attributes as
// little-endian float64 bits, then a CRC-32 (IEEE) over all the preceding
// bytes. Both directions stream through one buffer of colsBufSize bytes, so
// checkpointing or loading a compacted shard never allocates its size.
const colsBufSize = 64 << 10

// checkpoint persists sealed rows [lo,hi), republishes the manifest and
// advances the WAL low-water mark. Runs on the checkpointer goroutine.
func (s *Store) checkpoint(w ckptWork) error {
	entry, err := s.writeShardFile(w.lo, w.hi, 0)
	if err != nil {
		return err
	}
	s.man.Shards = append(s.man.Shards, entry)
	if err := s.publishManifest(); err != nil {
		// Roll the in-memory manifest back so a later retry (next seal's
		// checkpoint) does not reference this shard twice.
		s.man.Shards = s.man.Shards[:len(s.man.Shards)-1]
		return err
	}
	// The shard and manifest are durable; rows below hi can leave the WAL.
	if err := s.log.TruncateBefore(uint64(w.hi)); err != nil {
		return fmt.Errorf("advancing wal low-water mark: %w", err)
	}
	s.logf("store: checkpointed rows [%d,%d) to %s (%d rows)", w.lo, w.hi, entry.File, w.hi-w.lo)
	return nil
}

// compact mirrors one engine merge into the manifest as an atomic level
// swap: write and sync the merged columns file, splice it over the manifest
// entries tiling [lo,hi) and publish the manifest. The atomic rename is the
// commit point; the publish's sweep (gcRetired) then removes the replaced
// columns files, now unreferenced. A crash before the rename
// leaves the old level plus an orphaned merged file; a crash after it leaves
// the new level plus orphaned constituent files — either way the next Open
// sweeps the orphans and recovery sees exactly one coherent level. The WAL
// is untouched: every merged row was already below the low-water mark.
// Runs on the checkpointer goroutine.
func (s *Store) compact(w ckptWork) error {
	a := -1
	for i, e := range s.man.Shards {
		if e.Lo == w.lo {
			a = i
			break
		}
	}
	if a < 0 {
		return fmt.Errorf("compacting [%d,%d): no manifest entry starts at %d", w.lo, w.hi, w.lo)
	}
	b := a
	for b < len(s.man.Shards) && s.man.Shards[b].Hi <= w.hi {
		b++
	}
	if b == a || s.man.Shards[b-1].Hi != w.hi {
		return fmt.Errorf("compacting [%d,%d): manifest entries do not tile the range", w.lo, w.hi)
	}
	entry, err := s.writeShardFile(w.lo, w.hi, w.level)
	if err != nil {
		return err
	}
	old := s.man.Shards
	next := make([]shardEntry, 0, len(old)-(b-a)+1)
	next = append(next, old[:a]...)
	next = append(next, entry)
	next = append(next, old[b:]...)
	s.man.Shards = next
	if err := s.publishManifest(); err != nil {
		s.man.Shards = old
		return err
	}
	s.logf("store: compacted rows [%d,%d) into %s (level %d, replaced %d files)",
		w.lo, w.hi, entry.File, w.level, b-a)
	return nil
}

// retire advances the manifest's retention base past retired shards. Same
// commit discipline as compact: the manifest rename is the commit point, and
// the publish's sweep then removes the retired columns files. Runs on the
// checkpointer goroutine.
func (s *Store) retire(w ckptWork) error {
	if s.man.Base != w.lo {
		return fmt.Errorf("retiring [%d,%d): manifest base is %d", w.lo, w.hi, s.man.Base)
	}
	cut := 0
	for cut < len(s.man.Shards) && s.man.Shards[cut].Hi <= w.hi {
		cut++
	}
	if cut == 0 || s.man.Shards[cut-1].Hi != w.hi {
		return fmt.Errorf("retiring [%d,%d): manifest entries do not tile the range", w.lo, w.hi)
	}
	old, oldBase := s.man.Shards, s.man.Base
	s.man.Shards = append([]shardEntry(nil), old[cut:]...)
	s.man.Base = w.hi
	if err := s.publishManifest(); err != nil {
		s.man.Shards, s.man.Base = old, oldBase
		return err
	}
	s.logf("store: retired rows [%d,%d); retention base now %d", w.lo, w.hi, w.hi)
	return nil
}

// publishManifest refreshes the manifest's subscription section from the
// live registry, bumps the generation and writes it out — through the
// retention path (backup generation first, then the atomic rename) when
// KeepCheckpoints is set, plus a best-effort GC sweep afterwards.
func (s *Store) publishManifest() error {
	if s.reg != nil {
		s.man.Subs = subEntriesFrom(s.reg.Snapshot())
		s.man.NextSub = s.reg.NextID()
	}
	s.man.Gen++
	if s.opts.KeepCheckpoints > 0 {
		// The backup must be durable before MANIFEST claims its
		// generation: readManifest falls back to the newest backup, which
		// must therefore never lag the live manifest.
		if err := writeManifestAs(s.fs, s.dir, manifestGenName(s.man.Gen), s.man); err != nil {
			s.man.Gen--
			return err
		}
	}
	if err := writeManifestAs(s.fs, s.dir, manifestName, s.man); err != nil {
		s.man.Gen--
		return err
	}
	s.gcRetired()
	return nil
}

// writeShardFile persists the records at stream positions [lo,hi) into a
// freshly created columns file, syncs it and syncs the store directory, so
// both the bytes and the file's name survive a crash before any manifest
// names it.
func (s *Store) writeShardFile(lo, hi, level int) (shardEntry, error) {
	// The engine's view is append-stable, so reading it is safe while the
	// appender keeps running; retired rows stay readable until restart.
	view, err := s.eng.Rows(lo, hi)
	if err != nil {
		return shardEntry{}, err
	}
	name := shardFileName(lo, hi, level)
	f, err := s.fs.Create(filepath.Join(s.dir, name))
	if err != nil {
		return shardEntry{}, fmt.Errorf("creating %s: %w", name, err)
	}
	err = writeCols(f, view.Times(), view.FlatAttrs())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return shardEntry{}, fmt.Errorf("writing %s: %w", name, err)
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return shardEntry{}, fmt.Errorf("syncing %s after creating %s: %w", s.dir, name, err)
	}
	return shardEntry{File: name, Lo: lo, Hi: hi, Level: level}, nil
}

// writeCols writes the columns file of times and flat to f, checksumming
// the bytes as they pass through the one bounded buffer, and syncs f.
func writeCols(f wal.File, times []int64, flat []float64) error {
	buf := make([]byte, colsBufSize)
	var crc uint32
	n, words := len(times), len(times)+len(flat)
	// Word w of the payload is time w for w < n, then attribute w-n.
	for w := 0; w < words; {
		off, chunk := int64(w)*8, buf[:min(len(buf), (words-w)*8)]
		for i := 0; i < len(chunk); i, w = i+8, w+1 {
			if w < n {
				binary.LittleEndian.PutUint64(chunk[i:], uint64(times[w]))
			} else {
				binary.LittleEndian.PutUint64(chunk[i:], math.Float64bits(flat[w-n]))
			}
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		if _, err := f.WriteAt(chunk, off); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint32(buf, crc)
	if _, err := f.WriteAt(buf[:4], int64(words)*8); err != nil {
		return err
	}
	return f.Sync()
}

// loadShard reads one checkpointed shard's columns file back into rows. The
// file must be exactly the size of the entry's rows and its CRC must match;
// otherwise no row is returned.
func loadShard(fs wal.FS, dir string, e shardEntry, dims int) (core.RestoredShard, error) {
	n := e.Hi - e.Lo
	if n <= 0 {
		return core.RestoredShard{}, fmt.Errorf("empty shard range [%d,%d)", e.Lo, e.Hi)
	}
	path := filepath.Join(dir, e.File)
	size, err := fs.Size(path)
	if err != nil {
		return core.RestoredShard{}, err
	}
	// Divide rather than multiply: a corrupt manifest's n must not overflow
	// into a size that happens to match.
	rowBytes := int64(8 * (1 + dims))
	if size < 4 || (size-4)%rowBytes != 0 || (size-4)/rowBytes != int64(n) {
		return core.RestoredShard{}, fmt.Errorf("%s is %d bytes, not %d rows of %d attributes", e.File, size, n, dims)
	}
	f, err := fs.Open(path)
	if err != nil {
		return core.RestoredShard{}, err
	}
	defer f.Close()
	sh := core.RestoredShard{
		Times: make([]int64, n),
		Flat:  make([]float64, n*dims),
		Level: e.Level,
	}
	buf := make([]byte, colsBufSize)
	var crc uint32
	for w, words := 0, int(size-4)/8; w < words; {
		chunk := buf[:min(len(buf), (words-w)*8)]
		if _, err := f.ReadAt(chunk, int64(w)*8); err != nil {
			return core.RestoredShard{}, fmt.Errorf("reading %s: %w", e.File, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		for i := 0; i < len(chunk); i, w = i+8, w+1 {
			v := binary.LittleEndian.Uint64(chunk[i:])
			if w < n {
				sh.Times[w] = int64(v)
			} else {
				sh.Flat[w-n] = math.Float64frombits(v)
			}
		}
	}
	var sum [4]byte
	if _, err := f.ReadAt(sum[:], size-4); err != nil {
		return core.RestoredShard{}, fmt.Errorf("reading %s: %w", e.File, err)
	}
	if want := binary.LittleEndian.Uint32(sum[:]); crc != want {
		return core.RestoredShard{}, fmt.Errorf("%s: checksum %08x, file says %08x", e.File, crc, want)
	}
	return sh, nil
}

// manifestGenName names one retained manifest generation backup.
func manifestGenName(gen uint64) string {
	return fmt.Sprintf("%s.%012d", manifestName, gen)
}

// parseManifestGen extracts the generation from a MANIFEST.<gen> backup
// name; ok is false for anything else (including MANIFEST itself and temp
// files).
func parseManifestGen(name string) (uint64, bool) {
	rest, found := strings.CutPrefix(name, manifestName+".")
	if !found || rest == "" || strings.HasSuffix(rest, ".tmp") {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// readManifest loads the manifest, returning an empty one when none exists.
// A MANIFEST that exists but cannot be decoded falls back to the newest
// valid MANIFEST.<gen> retention backup: the backup for a generation is made
// durable before MANIFEST adopts it, so the newest backup never lags the
// live manifest and the fallback is lossless.
func readManifest(fs wal.FS, dir string) (manifest, error) {
	m, err := readManifestFile(fs, dir, manifestName)
	if err == nil {
		return m, nil
	}
	if notExist(err) {
		return manifest{Version: manifestVersion}, nil
	}
	names, lerr := fs.ReadDir(dir)
	if lerr != nil {
		return manifest{}, err
	}
	gens := make([]uint64, 0, len(names))
	for _, name := range names {
		if g, ok := parseManifestGen(name); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		b, berr := readManifestFile(fs, dir, manifestGenName(g))
		if berr != nil {
			continue
		}
		return b, nil
	}
	return manifest{}, err
}

// readManifestFile loads and validates one manifest file. Missing files
// surface as a notExist error so the caller can tell "never checkpointed"
// from "checkpointed and damaged".
func readManifestFile(fs wal.FS, dir, name string) (manifest, error) {
	path := filepath.Join(dir, name)
	size, err := fs.Size(path)
	if err != nil {
		if notExist(err) {
			return manifest{}, err
		}
		return manifest{}, fmt.Errorf("store: reading %s: %w", name, err)
	}
	f, err := fs.Open(path)
	if err != nil {
		return manifest{}, fmt.Errorf("store: opening %s: %w", name, err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			return manifest{}, fmt.Errorf("store: reading %s: %w", name, err)
		}
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return manifest{}, fmt.Errorf("store: decoding %s: %w", name, err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("store: unsupported %s version %d (want %d)", name, m.Version, manifestVersion)
	}
	return m, nil
}

// writeManifestAs atomically replaces dir/name with m: write a temp file,
// sync it, rename it over name and sync dir. A crash at any point leaves
// either the old or the new manifest, never a torn one.
func writeManifestAs(fs wal.FS, dir, name string, m manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: creating manifest temp: %w", err)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: writing manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("store: publishing manifest: %w", err)
	}
	// The rename is durable only once the directory is synced; the caller
	// truncates the WAL right after this returns.
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("store: syncing %s after publishing manifest: %w", dir, err)
	}
	return nil
}

// gcRetired is the best-effort sweep run after every successful manifest
// publish and once at Open: drop columns files the live manifest no longer
// references (crash leftovers from a checkpoint or compaction that never
// published, constituents of a committed level swap, retired shards) and
// stale manifest temp files — unconditionally, since nothing can ever
// reference them again — plus, when KeepCheckpoints is set, MANIFEST.<gen>
// backups older than the newest KeepCheckpoints generations. Failures are
// logged, never escalated — GC losing a race with the filesystem must not
// poison the store.
func (s *Store) gcRetired() {
	names, err := s.fs.ReadDir(s.dir)
	if err != nil {
		s.logf("store: retention sweep: %v", err)
		return
	}
	referenced := make(map[string]bool, len(s.man.Shards))
	for _, e := range s.man.Shards {
		referenced[e.File] = true
	}
	// With retention disabled no backups are written, so no generation is
	// ever stale (oldest 0); pre-existing backups from an earlier retention
	// configuration are left alone.
	var oldest uint64
	if keep := uint64(s.opts.KeepCheckpoints); keep > 0 && s.man.Gen > keep {
		oldest = s.man.Gen - keep + 1
	}
	for _, name := range names {
		var stale bool
		switch {
		case strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, manifestName):
			stale = true
		case strings.HasSuffix(name, ".cols"):
			stale = !referenced[name]
		default:
			g, ok := parseManifestGen(name)
			stale = ok && g < oldest
		}
		if !stale {
			continue
		}
		if err := s.fs.Remove(filepath.Join(s.dir, name)); err != nil && !notExist(err) {
			s.logf("store: retention sweep: removing %s: %v", name, err)
		}
	}
}
