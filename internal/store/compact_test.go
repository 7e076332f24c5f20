package store

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// compactOpts enables background compaction on top of the usual small-seal
// test configuration.
func compactOpts(fs wal.FS) Options {
	return Options{
		FS:    fs,
		Sync:  wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 32, CompactFanout: 2},
	}
}

// drain quiesces the whole lifecycle: freeze builds, the compaction cascade,
// and the checkpointer queue the hooks fed from them.
func drain(s *Store) {
	s.Engine().WaitSealed()
	s.Engine().WaitCompacted()
	s.WaitCheckpoints()
}

// assertManifestTiles checks the store's in-memory manifest: shard entries
// tile [base, sealed) contiguously and every referenced columns file exists.
func assertManifestTiles(t *testing.T, s *Store) {
	t.Helper()
	prev := s.man.Base
	for _, e := range s.man.Shards {
		if e.Lo != prev {
			t.Fatalf("manifest gap: entry starts at %d, want %d (%+v)", e.Lo, prev, s.man.Shards)
		}
		if e.File != shardFileName(e.Lo, e.Hi, e.Level) {
			t.Fatalf("entry [%d,%d) L%d named %s", e.Lo, e.Hi, e.Level, e.File)
		}
		if _, err := s.fs.Size(filepath.Join(s.dir, e.File)); err != nil {
			t.Fatalf("referenced columns file %s unreadable: %v", e.File, err)
		}
		prev = e.Hi
	}
}

// TestStoreCompactionLevelSwapAndRecovery: engine merges must reach the
// manifest as atomic level swaps, replaced files must be GC'd, and recovery
// must restore the leveled layout bit-identically.
func TestStoreCompactionLevelSwapAndRecovery(t *testing.T) {
	fs := wal.NewMemFS()
	rng := rand.New(rand.NewSource(11))
	const n, d = 256, 2 // 8 seals of 32 -> cascades to one level-3 shard
	rows := genRows(rng, n, d)
	st, err := Open("db", d, compactOpts(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, r := range rows {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	drain(st)
	if st.Engine().Compactions() == 0 {
		t.Fatal("engine never compacted")
	}
	assertManifestTiles(t, st)
	maxLevel := 0
	for _, e := range st.man.Shards {
		if e.Level > maxLevel {
			maxLevel = e.Level
		}
	}
	if maxLevel < 2 {
		t.Fatalf("manifest max level %d, want the cascade to reach >= 2 (%+v)", maxLevel, st.man.Shards)
	}
	if len(st.man.Shards) >= n/32 {
		t.Fatalf("manifest still lists %d shards after compacting %d seals", len(st.man.Shards), n/32)
	}
	// Constituent files of committed swaps are gone: only referenced columns
	// files remain on disk.
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	referenced := make(map[string]bool)
	for _, e := range st.man.Shards {
		referenced[e.File] = true
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".cols") && !referenced[name] {
			t.Fatalf("unreferenced columns file %s survived the swap GC", name)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := Open("db", d, compactOpts(fs))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	assertRows(t, rec, rows, n)
	if got := rec.Engine().MaxLevel(); got != maxLevel {
		t.Fatalf("recovered MaxLevel = %d, want %d", got, maxLevel)
	}
	if rec.Stats().RestoredRows == 0 {
		t.Fatal("recovery restored nothing from checkpoints")
	}
	assertStrategiesMatchBatch(t, rec, rows, n, -1)

	// Ingestion resumes: appends land after the leveled history.
	more := genRowsAfter(rng, rows[n-1].T, 40, d)
	for _, r := range more {
		if _, _, err := rec.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("resume append: %v", err)
		}
	}
	assertRows(t, rec, append(append([]Row(nil), rows...), more...), n+40)
}

// TestStoreRetirementAdvancesBase: bounded retention must advance the
// manifest base, drop retired shards' files, and recover to exactly the
// retained suffix with every record keeping its stream position as its id:
// Len, RetiredRows, answers, durations, profiles and most-durable reports
// are the same numbers before and after the restart.
func TestStoreRetirementAdvancesBase(t *testing.T) {
	fs := wal.NewMemFS()
	rng := rand.New(rand.NewSource(13))
	const n, d = 400, 1
	rows := genRows(rng, n, d) // gaps 1..5, span ~1200
	opts := Options{
		FS:    fs,
		Sync:  wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 32, RetainSpan: 300},
	}
	st, err := Open("db", d, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, r := range rows {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	drain(st)
	base := st.man.Base
	if base == 0 {
		t.Fatal("retention never advanced the manifest base")
	}
	if base != st.Engine().RetiredRows() {
		t.Fatalf("manifest base %d != engine retired rows %d", base, st.Engine().RetiredRows())
	}
	if base%32 != 0 {
		t.Fatalf("base %d is not a whole-shard multiple", base)
	}
	assertManifestTiles(t, st)
	// Retired shards' files are gone.
	names, _ := fs.ReadDir("db")
	for _, name := range names {
		if strings.HasPrefix(name, "shard-000000000000-") {
			t.Fatalf("retired shard file %s survived", name)
		}
	}
	if st.Len() != n {
		t.Fatalf("Len = %d, want %d before restart", st.Len(), n)
	}
	scorer := score.MustLinear(1)
	lo, hi := rows[base].T, rows[n-1].T
	look := core.Query{K: 3, Tau: (hi - lo) / 3, Start: lo, End: hi, Scorer: scorer, WithDurations: true}
	before, err := st.Engine().DurableTopK(look)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	rec, err := Open("db", d, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if got := rec.Engine().RetiredRows(); got != base {
		t.Fatalf("recovered RetiredRows = %d, want the manifest base %d", got, base)
	}
	if rec.Len() != n {
		t.Fatalf("recovered Len = %d, want %d", rec.Len(), n)
	}
	ds := rec.Engine().Dataset()
	if ds.Len() != n-base {
		t.Fatalf("recovered engine holds %d rows, want the %d retained", ds.Len(), n-base)
	}
	for i := 0; i < ds.Len(); i++ {
		if ds.Time(i) != rows[base+i].T || !reflect.DeepEqual(ds.Attrs(i), rows[base+i].Attrs) {
			t.Fatalf("retained row %d diverges from stream row %d", i, base+i)
		}
	}
	after, err := rec.Engine().DurableTopK(look)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Records, before.Records) {
		t.Fatalf("the restart renumbered the answer:\nbefore %v\n after %v", before.Records, after.Records)
	}

	// Answers over the suffix match a batch engine built over it, its ids
	// offset by the base.
	times := make([]int64, n-base)
	vals := make([][]float64, n-base)
	for i := range times {
		times[i], vals[i] = rows[base+i].T, rows[base+i].Attrs
	}
	suffix, err := data.New(times, vals)
	if err != nil {
		t.Fatal(err)
	}
	batch := core.NewEngine(suffix, core.Options{})
	for _, anchor := range []core.Anchor{core.LookBack, core.LookAhead} {
		for _, alg := range core.Algorithms() {
			q := look
			q.Algorithm, q.Anchor = alg, anchor
			want, err := batch.DurableTopK(q)
			if err != nil {
				t.Fatalf("batch %v %v: %v", anchor, alg, err)
			}
			for i := range want.Records {
				want.Records[i].ID += base
			}
			got, err := rec.Engine().DurableTopK(q)
			if err != nil {
				t.Fatalf("recovered %v %v: %v", anchor, alg, err)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("%v %v diverged over the retained suffix:\n got %v\nwant %v", anchor, alg, got.Records, want.Records)
			}
		}
		want, err := batch.DurabilityProfile(3, scorer, anchor)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i].ID += base
		}
		got, err := rec.Engine().DurabilityProfile(3, scorer, anchor)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v durability profile diverged over the retained suffix", anchor)
		}
		want, err = batch.MostDurable(3, scorer, anchor, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			want[i].ID += base
		}
		got, err = rec.Engine().MostDurable(3, scorer, anchor, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v most durable diverged over the retained suffix:\n got %v\nwant %v", anchor, got, want)
		}
	}
	// Ingestion resumes at stream position n.
	if _, _, err := rec.Append(rows[n-1].T+1, rows[0].Attrs); err != nil {
		t.Fatalf("resume append: %v", err)
	}
	if rec.Len() != n+1 {
		t.Fatalf("Len after resume = %d, want %d", rec.Len(), n+1)
	}
}

// TestOrphanShardFileGC is the regression test for crash leftovers: columns
// files and manifest temp files that no manifest references — a checkpoint or
// compaction that died before its publish — must be swept at Open even with
// KeepCheckpoints disabled, and after every successful publish.
func TestOrphanShardFileGC(t *testing.T) {
	fs := wal.NewMemFS()
	rng := rand.New(rand.NewSource(17))
	rows := genRows(rng, 64, 1)
	st, err := Open("db", 1, testOpts(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for _, r := range rows {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatal(err)
		}
	}
	drain(st)
	if st.Checkpoints() == 0 {
		t.Fatal("no checkpoint landed; the orphan test needs a referenced file to keep")
	}
	kept := st.man.Shards[0].File
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Plant crash leftovers: an orphaned level-1 merge that never published,
	// an orphaned plain checkpoint, and a torn manifest temp file.
	for _, name := range []string{
		shardFileName(0, 64, 1),
		shardFileName(9000, 9064, 0),
		manifestName + ".tmp",
	} {
		f, err := fs.Create(filepath.Join("db", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("leftover"), 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	rec, err := Open("db", 1, testOpts(fs)) // KeepCheckpoints: 0
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer rec.Close()
	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		seen[name] = true
	}
	if seen[shardFileName(0, 64, 1)] || seen[shardFileName(9000, 9064, 0)] || seen[manifestName+".tmp"] {
		t.Fatalf("orphans survived Open's sweep: %v", names)
	}
	if !seen[kept] {
		t.Fatalf("sweep removed the referenced columns file %s", kept)
	}
	assertRows(t, rec, rows, 64)
}

// TestCrashDuringCompactionLevelSwap aims the kill-at-any-byte harness at
// the level swap specifically: budgets land on the byte boundaries of merged
// (.L*) columns-file writes and the manifest writes that commit them. Recovery
// must come up on the old or the new level — never lose a row, never
// reference a torn file — and keep answering like a batch engine.
func TestCrashDuringCompactionLevelSwap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n, d = 400, 2
	rows := genRows(rng, n, d)

	golden := faultfs.New(wal.NewMemFS())
	st, err := Open("db", d, crashOpts(golden))
	if err != nil {
		t.Fatalf("golden Open: %v", err)
	}
	if acked := feedAll(st, rows); acked != n {
		t.Fatalf("golden run acked %d of %d", acked, n)
	}
	drain(st)
	if st.Engine().Compactions() == 0 {
		t.Fatal("golden run never compacted; crashOpts lost its fanout?")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("golden Close: %v", err)
	}

	// Collect budgets bracketing every write to a merged columns file, and the
	// first manifest write after each (the swap's commit point).
	budgets := map[int64]bool{}
	var cum int64
	wantManifest := false
	for _, op := range golden.Ops() {
		if op.Op != "write" {
			continue
		}
		cum += op.Len
		switch {
		case strings.Contains(op.Name, ".L"):
			budgets[cum-1] = true
			budgets[cum] = true
			budgets[cum+1] = true
			wantManifest = true
		case wantManifest && strings.HasPrefix(op.Name, manifestName):
			budgets[cum-1] = true
			budgets[cum] = true
			wantManifest = false
		}
	}
	if len(budgets) == 0 {
		t.Fatal("golden run recorded no merged-file writes")
	}
	for budget := range budgets {
		if budget < 0 {
			continue
		}
		runCrashTrial(t, rows, budget)
	}
}
