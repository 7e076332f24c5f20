package store

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// TestCrashRecoveryDifferential is the acceptance harness of the
// durability layer: feed a stream through a store running on a
// fault-injecting filesystem that kills the process (torn write included)
// after a byte budget, recover from the surviving state, and require that
//
//  1. recovery always succeeds and yields an exact prefix of the stream,
//  2. the prefix covers at least every acknowledged append,
//  3. the recovered engine answers all five strategies bit-identically to
//     a batch engine built over the durable prefix, and
//  4. ingestion resumes exactly where the prefix ends.
//
// Budgets sweep both uniform offsets and the exact write boundaries (±1
// byte) recorded by a golden run, so crashes land before, inside and after
// individual WAL frames, checkpoint columns files and manifest writes.
func TestCrashRecoveryDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, d = 400, 2
	rows := genRows(rng, n, d)

	// Golden run: no crash, learn the total write volume and boundaries.
	golden := faultfs.New(wal.NewMemFS())
	st, err := Open("db", d, crashOpts(golden))
	if err != nil {
		t.Fatalf("golden Open: %v", err)
	}
	if acked := feedAll(st, rows); acked != n {
		t.Fatalf("golden run acked %d of %d", acked, n)
	}
	st.WaitCheckpoints()
	if err := st.Close(); err != nil {
		t.Fatalf("golden Close: %v", err)
	}
	total := golden.BytesWritten()
	if total == 0 {
		t.Fatal("golden run wrote nothing")
	}

	// Budget schedule: uniform coverage plus exact boundaries ±1.
	budgets := map[int64]bool{0: true, 1: true, total - 1: true}
	for i := int64(1); i <= 24; i++ {
		budgets[total*i/25] = true
	}
	var cum int64
	for i, op := range golden.Ops() {
		if op.Op != "write" {
			continue
		}
		cum += op.Len
		if i%7 == 0 { // sample boundaries; every one would be O(thousands)
			budgets[cum-1] = true
			budgets[cum] = true
			budgets[cum+1] = true
		}
	}

	for budget := range budgets {
		if budget < 0 || budget > total {
			continue
		}
		runCrashTrial(t, rows, budget)
	}
}

// crashOpts enables compaction so the budget sweep also lands inside merged
// columns files and the manifest renames that commit level swaps.
func crashOpts(fs wal.FS) Options {
	return Options{
		FS:    fs,
		Sync:  wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 64, CompactFanout: 2},
	}
}

// feedAll appends rows one at a time until the store errors (the crash),
// returning the number of acknowledged appends.
func feedAll(s *Store, rows []Row) (acked int) {
	for _, r := range rows {
		if _, _, err := s.Append(r.T, r.Attrs); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

func runCrashTrial(t *testing.T, rows []Row, budget int64) {
	t.Helper()
	d := len(rows[0].Attrs)
	inner := wal.NewMemFS()
	ffs := faultfs.New(inner)
	ffs.SetCrashBudget(budget)

	st, err := Open("db", d, crashOpts(ffs))
	if err != nil {
		// The budget can land inside Open's own segment-create path;
		// nothing was acknowledged, so there is nothing to verify.
		return
	}
	acked := feedAll(st, rows)
	st.Close() // errors expected post-crash; this only stops goroutines

	// Recover from the durable state (what reached the inner filesystem).
	rec, err := Open("db", d, crashOpts(inner))
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	defer rec.Close()
	m := rec.Len()
	if m < acked {
		t.Fatalf("budget %d: recovered %d rows < %d acknowledged", budget, m, acked)
	}
	if m > len(rows) {
		t.Fatalf("budget %d: recovered %d rows > %d fed", budget, m, len(rows))
	}
	assertRows(t, rec, rows, m) // bit-exact prefix

	assertStrategiesMatchBatch(t, rec, rows, m, budget)

	// Ingestion resumes at the exact next row of the original stream.
	if m < len(rows) {
		if _, _, err := rec.Append(rows[m].T, rows[m].Attrs); err != nil {
			t.Fatalf("budget %d: resume append after recovery: %v", budget, err)
		}
		assertRows(t, rec, rows, m+1)
	}
}

// assertStrategiesMatchBatch requires the recovered engine to answer all
// five strategies bit-identically to a batch engine over rows[:m].
func assertStrategiesMatchBatch(t *testing.T, rec *Store, rows []Row, m int, budget int64) {
	t.Helper()
	if m == 0 {
		return
	}
	times := make([]int64, m)
	flat := make([]float64, 0, m*len(rows[0].Attrs))
	for i := 0; i < m; i++ {
		times[i] = rows[i].T
		flat = append(flat, rows[i].Attrs...)
	}
	ds, err := data.NewFlat(times, flat, len(rows[0].Attrs))
	if err != nil {
		t.Fatalf("budget %d: building reference dataset: %v", budget, err)
	}
	batch := core.NewEngine(ds, core.Options{})
	scorer := score.MustLinear(1, 0.5)
	lo, hi := ds.Span()
	queries := []core.Query{
		{K: 1, Tau: (hi - lo) / 4, Start: lo, End: hi, Scorer: scorer},
		{K: 3, Tau: (hi - lo) / 2, Start: lo, End: hi, Scorer: scorer},
		{K: 2, Tau: (hi - lo) / 3, Start: lo, End: hi, Scorer: scorer, Anchor: core.LookAhead},
	}
	for _, q := range queries {
		if q.Tau < 1 {
			q.Tau = 1
		}
		for _, alg := range core.Algorithms() {
			sub := q
			sub.Algorithm = alg
			want, err := batch.DurableTopK(sub)
			if err != nil {
				t.Fatalf("budget %d: batch %v: %v", budget, alg, err)
			}
			got, err := rec.Engine().DurableTopK(sub)
			if err != nil {
				t.Fatalf("budget %d: recovered %v: %v", budget, alg, err)
			}
			if !reflect.DeepEqual(got.Records, want.Records) {
				t.Fatalf("budget %d: strategy %v diverged over durable prefix of %d rows:\n got %v\nwant %v",
					budget, alg, m, got.Records, want.Records)
			}
		}
	}
}

// TestCrashDuringCheckpointRedoes kills the filesystem in the middle of a
// checkpoint's columns file specifically: the manifest must never reference
// a torn shard file, and recovery re-checkpoints the shard from the WAL.
func TestCrashDuringCheckpointRedoes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := genRows(rng, 200, 1)
	inner := wal.NewMemFS()
	ffs := faultfs.New(inner)
	opts := Options{FS: ffs, Sync: wal.SyncAlways, Shard: core.LiveShardOptions{SealRows: 64}}
	st, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// Feed one seal's worth, then crash halfway through the shard's columns
	// file. The budget is armed before the sealing row so that it covers
	// exactly that row's WAL frame plus half the file, and the checkpoint is
	// awaited before any further append can race it for the budget.
	const fileBytes = 64*(8+8) + 4 // 64 one-attribute rows and the CRC
	for i, r := range rows {
		before := ffs.BytesWritten()
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			break
		}
		switch i {
		case 62:
			ffs.SetCrashBudget(ffs.BytesWritten() - before + fileBytes/2)
		case 63:
			st.WaitCheckpoints()
		}
	}
	st.WaitCheckpoints()
	st.Close()
	if !ffs.Crashed() {
		t.Fatal("crash budget never tripped")
	}
	if ops := ffs.Ops(); !strings.HasSuffix(ops[len(ops)-1].Name, ".cols") {
		t.Fatalf("the crash tore %s, not the shard's columns file", ops[len(ops)-1].Name)
	}
	if err := st.Err(); err == nil {
		t.Fatal("store did not surface the checkpoint failure")
	}

	opts.FS = inner // recover from the durable state
	rec, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer rec.Close()
	if rec.Stats().RestoredRows != 0 {
		t.Fatalf("RestoredRows = %d; the torn checkpoint must not be referenced", rec.Stats().RestoredRows)
	}
	m := rec.Len()
	if m < 64 {
		t.Fatalf("recovered %d rows, want at least the sealed 64", m)
	}
	assertRows(t, rec, rows, m)
	// The re-fired seal checkpoints successfully on the healthy FS.
	rec.WaitCheckpoints()
	if rec.Checkpoints() == 0 {
		t.Fatal("recovered store did not re-checkpoint the sealed shard")
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("recovered store unhealthy: %v", err)
	}
}
