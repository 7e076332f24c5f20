package store

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/score"
	"repro/internal/sub"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// durableSpec is the standing query every subscription test registers: both
// verdict kinds, and a Source so it persists through checkpoints.
func durableSpec() sub.Spec {
	return sub.Spec{
		Scorer:    score.MustLinear(1, 0.5),
		K:         2,
		Tau:       40,
		Decisions: true,
		Confirms:  true,
		Source:    &sub.Source{Weights: []float64{1, 0.5}},
	}
}

// referenceEvents derives the uninterrupted event stream a subscriber with
// spec would have seen over rows — the oracle every durable-subscription
// test compares against.
func referenceEvents(t *testing.T, spec sub.Spec, rows []Row) []sub.Event {
	t.Helper()
	reg := sub.NewRegistry(0)
	var want []sub.Event
	if _, err := reg.Subscribe(spec, func(ev sub.Event) { want = append(want, ev) }); err != nil {
		t.Fatalf("reference Subscribe: %v", err)
	}
	for _, r := range rows {
		if err := reg.Observe(r.T, r.Attrs); err != nil {
			t.Fatalf("reference Observe: %v", err)
		}
	}
	return want
}

// assertEventStream requires got to be the reference stream exactly:
// bit-identical events with contiguous sequence numbers from 1.
func assertEventStream(t *testing.T, got, want []sub.Event) {
	t.Helper()
	for i, ev := range got {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d; stream is not contiguous", i, ev.Seq)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestStoreDurableSubscriptionRoundTrip registers a durable subscription,
// restarts the store mid-stream, resumes, and requires the merged event
// stream to be bit-identical to an uninterrupted subscriber's.
func TestStoreDurableSubscriptionRoundTrip(t *testing.T) {
	fs := wal.NewMemFS()
	st, err := Open("db", 2, testOpts(fs))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	spec := durableSpec()
	var got []sub.Event
	id, err := st.Registry().Subscribe(spec, func(ev sub.Event) { got = append(got, ev) })
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// An ephemeral subscription (no Source) must not survive the restart.
	ephemeral := spec
	ephemeral.Source = nil
	if _, err := st.Registry().Subscribe(ephemeral, func(sub.Event) {}); err != nil {
		t.Fatalf("ephemeral Subscribe: %v", err)
	}
	if err := st.SyncSubscriptions(); err != nil {
		t.Fatalf("SyncSubscriptions: %v", err)
	}

	rng := rand.New(rand.NewSource(11))
	rows := genRows(rng, 300, 2)
	for i, r := range rows[:200] {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	st.WaitCheckpoints()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2, err := Open("db", 2, testOpts(fs))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer st2.Close()
	if n := st2.Registry().Len(); n != 1 {
		t.Fatalf("recovered registry holds %d subscriptions, want 1 (durable only)", n)
	}
	// Resume from the last event the consumer saw; nothing was lost in
	// flight here, so the resume replay must deliver no duplicates.
	from := 0
	if len(got) > 0 {
		from = got[len(got)-1].Prefix
	}
	before := len(got)
	base, err := st2.Registry().ResumeNotify(id, from, func(ev sub.Event) { got = append(got, ev) }, st2.RowSource(), nil)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if base != 0 {
		t.Fatalf("Resume base = %d, want 0", base)
	}
	if len(got) != before {
		t.Fatalf("resume at the acked prefix replayed %d duplicate events", len(got)-before)
	}
	for i, r := range rows[200:] {
		if _, _, err := st2.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("resumed Append %d: %v", i, err)
		}
	}
	assertEventStream(t, got, referenceEvents(t, spec, rows))
}

// TestStoreKeepCheckpointsRetention checks the -keepcheckpoints contract:
// backup generations are bounded, the newest backup matches MANIFEST byte
// for byte, orphaned columns files are swept, and a corrupted MANIFEST
// recovers losslessly from the newest retained backup.
func TestStoreKeepCheckpointsRetention(t *testing.T) {
	fs := wal.NewMemFS()
	opts := testOpts(fs)
	opts.KeepCheckpoints = 3
	st, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rng := rand.New(rand.NewSource(12))
	rows := genRows(rng, 500, 1)
	for i, r := range rows {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	st.WaitCheckpoints()
	if st.Checkpoints() < 4 {
		t.Fatalf("only %d checkpoints; the retention sweep needs more generations than it keeps", st.Checkpoints())
	}
	// Plant an orphan columns file (a crash leftover shape) and force one more
	// publish cycle to sweep it.
	orphan := filepath.Join("db", shardFileName(9000, 9064, 0))
	if f, err := fs.Create(orphan); err == nil {
		f.Close()
	}
	for i, r := range genRowsAfter(rng, rows[len(rows)-1].T, 64, 1) {
		if _, _, err := st.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("orphan-sweep Append %d: %v", i, err)
		}
	}
	st.WaitCheckpoints()
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, err := fs.ReadDir("db")
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	var gens []string
	for _, name := range names {
		if _, ok := parseManifestGen(name); ok {
			gens = append(gens, name)
		}
		if name == filepath.Base(orphan) {
			t.Fatalf("orphan columns file %s survived the retention sweep", name)
		}
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("stale temp file %s survived the retention sweep", name)
		}
	}
	if len(gens) == 0 || len(gens) > opts.KeepCheckpoints {
		t.Fatalf("retained %d manifest generations %v, want 1..%d", len(gens), gens, opts.KeepCheckpoints)
	}
	newest := gens[len(gens)-1] // ReadDir is lexical; gen names are zero-padded
	if !reflect.DeepEqual(readFile(t, fs, filepath.Join("db", newest)), readFile(t, fs, filepath.Join("db", manifestName))) {
		t.Fatalf("newest backup %s is not byte-identical to MANIFEST", newest)
	}

	// Corrupt MANIFEST; recovery must fall back to the newest backup and
	// reconstruct the identical store.
	f, err := fs.Create(filepath.Join("db", manifestName))
	if err != nil {
		t.Fatalf("corrupting manifest: %v", err)
	}
	f.WriteAt([]byte("{torn"), 0)
	f.Close()
	rec, err := Open("db", 1, opts)
	if err != nil {
		t.Fatalf("recovery with corrupt MANIFEST: %v", err)
	}
	defer rec.Close()
	if rec.Len() != 564 {
		t.Fatalf("recovered %d rows, want 564", rec.Len())
	}
	if rec.Stats().RestoredRows == 0 {
		t.Fatal("fallback recovery loaded no checkpointed shards")
	}
}

func readFile(t testing.TB, fs wal.FS, path string) []byte {
	t.Helper()
	size, err := fs.Size(path)
	if err != nil {
		t.Fatalf("Size %s: %v", path, err)
	}
	f, err := fs.Open(path)
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		if _, err := f.ReadAt(buf, 0); err != nil {
			t.Fatalf("ReadAt %s: %v", path, err)
		}
	}
	return buf
}

// TestCrashRecoveryDurableSubscriptions kills the filesystem at swept write
// offsets while a durable subscription is live, recovers, and requires that
//
//  1. an acknowledged registration (SyncSubscriptions returned nil) is
//     always restored,
//  2. every event delivered before the crash describes a row that survived
//     it (observe-after-commit),
//  3. resuming from the last delivered prefix and continuing ingestion
//     yields a merged stream bit-identical to an uninterrupted subscriber
//     over the recovered prefix plus the new rows — no gaps, no duplicates.
func TestCrashRecoveryDurableSubscriptions(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, d = 300, 2
	rows := genRows(rng, n, d)

	golden := faultfs.New(wal.NewMemFS())
	st, err := Open("db", d, crashOpts(golden))
	if err != nil {
		t.Fatalf("golden Open: %v", err)
	}
	if _, err := st.Registry().Subscribe(durableSpec(), func(sub.Event) {}); err != nil {
		t.Fatalf("golden Subscribe: %v", err)
	}
	if err := st.SyncSubscriptions(); err != nil {
		t.Fatalf("golden SyncSubscriptions: %v", err)
	}
	if acked := feedAll(st, rows); acked != n {
		t.Fatalf("golden run acked %d of %d", acked, n)
	}
	st.WaitCheckpoints()
	if err := st.Close(); err != nil {
		t.Fatalf("golden Close: %v", err)
	}
	total := golden.BytesWritten()

	budgets := map[int64]bool{0: true, 1: true, total - 1: true}
	for i := int64(1); i <= 16; i++ {
		budgets[total*i/17] = true
	}
	var cum int64
	for i, op := range golden.Ops() {
		if op.Op != "write" {
			continue
		}
		cum += op.Len
		if i%11 == 0 {
			budgets[cum-1] = true
			budgets[cum] = true
		}
	}
	for budget := range budgets {
		if budget < 0 || budget > total {
			continue
		}
		runSubCrashTrial(t, rows, budget)
	}
}

func runSubCrashTrial(t *testing.T, rows []Row, budget int64) {
	t.Helper()
	d := len(rows[0].Attrs)
	inner := wal.NewMemFS()
	ffs := faultfs.New(inner)
	ffs.SetCrashBudget(budget)
	spec := durableSpec()

	st, err := Open("db", d, crashOpts(ffs))
	if err != nil {
		return // crashed inside Open; nothing acknowledged
	}
	var delivered []sub.Event
	id, err := st.Registry().Subscribe(spec, func(ev sub.Event) { delivered = append(delivered, ev) })
	if err != nil {
		st.Close()
		return
	}
	subAcked := st.SyncSubscriptions() == nil
	feedAll(st, rows)
	st.Close()

	rec, err := Open("db", d, crashOpts(inner))
	if err != nil {
		t.Fatalf("budget %d: recovery failed: %v", budget, err)
	}
	defer rec.Close()
	m := rec.Len()
	if subAcked && rec.Registry().Len() != 1 {
		t.Fatalf("budget %d: acknowledged subscription lost in recovery", budget)
	}
	from := 0
	if len(delivered) > 0 {
		from = delivered[len(delivered)-1].Prefix
	}
	if from > m {
		t.Fatalf("budget %d: delivered an event for prefix %d but only %d rows survived", budget, from, m)
	}
	if rec.Registry().Len() == 0 {
		return // registration never became durable before the crash; fine
	}
	if _, err := rec.Registry().ResumeNotify(id, from, func(ev sub.Event) { delivered = append(delivered, ev) }, rec.RowSource(), nil); err != nil {
		t.Fatalf("budget %d: Resume: %v", budget, err)
	}
	for _, r := range rows[m:] {
		if _, _, err := rec.Append(r.T, r.Attrs); err != nil {
			t.Fatalf("budget %d: post-recovery Append: %v", budget, err)
		}
	}
	assertEventStream(t, delivered, referenceEvents(t, spec, rows))
}
