package store

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/wal"
)

// genRows produces a deterministic strictly-increasing stream of n
// d-dimensional rows with irregular time gaps.
func genRows(rng *rand.Rand, n, d int) []Row {
	rows := make([]Row, n)
	t := int64(0)
	for i := range rows {
		t += 1 + int64(rng.Intn(5))
		attrs := make([]float64, d)
		for j := range attrs {
			attrs[j] = rng.NormFloat64() * 100
		}
		rows[i] = Row{T: t, Attrs: attrs}
	}
	return rows
}

// testOpts builds store options over fs with a small seal threshold so a
// few hundred rows exercise several seal/checkpoint cycles.
func testOpts(fs wal.FS) Options {
	return Options{
		FS:    fs,
		Sync:  wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 64},
	}
}

// assertRows checks that the store holds exactly rows[:m], bit for bit.
func assertRows(t *testing.T, s *Store, rows []Row, m int) {
	t.Helper()
	if got := s.Len(); got != m {
		t.Fatalf("Len = %d, want %d", got, m)
	}
	ds := s.Engine().Dataset()
	for i := 0; i < m; i++ {
		if ds.Time(i) != rows[i].T {
			t.Fatalf("row %d: time %d, want %d", i, ds.Time(i), rows[i].T)
		}
		if !reflect.DeepEqual(ds.Attrs(i), rows[i].Attrs) {
			t.Fatalf("row %d: attrs %v, want %v", i, ds.Attrs(i), rows[i].Attrs)
		}
	}
}

func TestStoreAppendRecoverRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	st, err := Open("db", 2, testOpts(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := genRows(rng, 300, 2)
	for i, r := range rows {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	st.WaitCheckpoints()
	if st.Checkpoints() == 0 {
		t.Fatal("no checkpoints after 300 rows with SealRows=64")
	}
	assertRows(t, st, rows, 300)
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Recover: sealed shards load from checkpoints, only the tail replays.
	st2, err := Open("db", 2, testOpts(fs))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	stats := st2.Stats()
	sealed := 300 / 64 * 64
	if stats.RestoredRows != sealed {
		t.Fatalf("RestoredRows = %d, want %d (checkpointed shards load in bulk)", stats.RestoredRows, sealed)
	}
	if stats.ReplayedRows != 300-sealed {
		t.Fatalf("ReplayedRows = %d, want %d (only the unsealed tail replays)", stats.ReplayedRows, 300-sealed)
	}
	assertRows(t, st2, rows, 300)

	// Ingestion resumes at the exact next row.
	more := genRowsAfter(rng, rows[len(rows)-1].T, 50, 2)
	for i, r := range more {
		if _, _, err := st2.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("resumed Append %d: %v", i, err)
		}
	}
	all := append(append([]Row(nil), rows...), more...)
	assertRows(t, st2, all, 350)
	if err := st2.Close(); err != nil {
		t.Fatalf("Close 2: %v", err)
	}

	// And a second recovery still agrees.
	st3, err := Open("db", 2, testOpts(fs))
	if err != nil {
		t.Fatalf("recover 2: %v", err)
	}
	defer st3.Close()
	assertRows(t, st3, all, 350)
}

// genRowsAfter continues a stream past time t0.
func genRowsAfter(rng *rand.Rand, t0 int64, n, d int) []Row {
	rows := genRows(rng, n, d)
	for i := range rows {
		rows[i].T += t0
	}
	return rows
}

func TestStoreAppendBatchGroupCommit(t *testing.T) {
	fs := wal.NewMemFS()
	st, err := Open("db", 1, testOpts(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	rows := genRows(rng, 200, 1)
	n, _, _, err := st.AppendBatch(rows)
	if err != nil || n != 200 {
		t.Fatalf("AppendBatch = %d, %v", n, err)
	}
	// An out-of-order row commits the valid prefix and reports the rest.
	bad := []Row{{T: rows[199].T + 1, Attrs: []float64{1}}, {T: 0, Attrs: []float64{2}}}
	n, _, _, err = st.AppendBatch(bad)
	if err == nil || n != 1 {
		t.Fatalf("AppendBatch with bad row = %d, %v; want 1 appended and an error", n, err)
	}
	if st.Err() != nil {
		t.Fatalf("validation failure must not poison the store: %v", st.Err())
	}
	st.Close()

	st2, err := Open("db", 1, testOpts(fs))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 201 {
		t.Fatalf("recovered Len = %d, want 201", st2.Len())
	}
}

func TestStoreValidation(t *testing.T) {
	st, err := Open("db", 2, testOpts(wal.NewMemFS()))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if _, _, err := st.Append(1, []float64{1}); err == nil {
		t.Fatal("wrong dimensionality accepted")
	}
	if _, _, err := st.Append(5, []float64{1, 2}); err != nil {
		t.Fatalf("valid append: %v", err)
	}
	if _, _, err := st.Append(5, []float64{3, 4}); err == nil {
		t.Fatal("non-increasing time accepted")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d after one valid append", st.Len())
	}
}

func TestStoreWALTruncatedAfterCheckpoint(t *testing.T) {
	fs := wal.NewMemFS()
	opts := testOpts(fs)
	opts.SegmentSize = 512 // rotate often so truncation has segments to drop
	st, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	for _, r := range genRows(rng, 500, 1) {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	st.WaitCheckpoints()
	names, err := fs.ReadDir(filepath.Join("db", "wal"))
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	// 500 rows at SealRows=64 → low-water mark 448; frames are 25 bytes so
	// dozens of 512-byte segments were written. Truncation must have
	// dropped all but the ones holding rows >= 448.
	if len(names) > 5 {
		t.Fatalf("wal still holds %d segments after checkpointing: %v", len(names), names)
	}
	st.Close()

	st2, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 500 {
		t.Fatalf("recovered Len = %d, want 500", st2.Len())
	}
	if st2.Stats().ReplayedRows != 500-448 {
		t.Fatalf("ReplayedRows = %d, want %d", st2.Stats().ReplayedRows, 500-448)
	}
}
