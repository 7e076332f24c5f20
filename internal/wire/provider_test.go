package wire

import (
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/wal"
)

// Compile-time proof that the crash-safe store is a RegistryProvider: the
// server adopts its durable registry whenever durserved registers one via
// AddLiveQuerier.
var _ RegistryProvider = (*store.Store)(nil)

// startStoreServer serves one store-backed dataset, returning both handles.
func startStoreServer(t *testing.T, fs wal.FS, dir string) (*Server, *store.Store, string) {
	t.Helper()
	return serveStore(t, dir, store.Options{
		FS: fs, Sync: wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 16},
	})
}

// serveStore opens the store in dir with opts and serves it as the
// 2-dimensional live dataset "stream".
func serveStore(t *testing.T, dir string, opts store.Options) (*Server, *store.Store, string) {
	t.Helper()
	st, err := store.Open(dir, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(func(string, ...interface{}) {})
	if err := srv.AddLiveQuerier("stream", st.Engine(), st, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, st, ln.Addr().String()
}

// TestStoreBackedSubscriptionSurvivesRestart is the tentpole end to end in
// process: a durable subscription registered over the wire is persisted by
// the store's checkpoint manifest, survives a full store+server restart, and
// a resume by key replays every event missed across the outage with the
// sequence numbers proving the splice gap-free.
func TestStoreBackedSubscriptionSurvivesRestart(t *testing.T) {
	fs := wal.NewMemFS()
	dir := "db"
	srv, st, addr := startStoreServer(t, fs, dir)

	cl := dialT(t, addr)
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := cl.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	key := s.SubKey()
	if key == 0 {
		t.Fatal("store-backed subscription got no durable key")
	}

	// Rows flow over the wire, through the store's WAL, and back out as
	// events — the full committed path.
	app := dialT(t, addr)
	for i := 1; i <= 10; i++ {
		if _, err := app.Append("stream", []IngestRow{{Time: int64(i), Attrs: []float64{float64(i), 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint64
	var lastPrefix int
	for lastPrefix < 10 {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				t.Fatal("stream closed early")
			}
			if ev.Seq != lastSeq+1 {
				t.Fatalf("gap before restart: seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq, lastPrefix = ev.Seq, ev.Prefix
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at prefix %d", lastPrefix)
		}
	}

	// Full outage: client gone, more rows committed, then the process
	// "restarts" — server and store close, the store recovers from WAL +
	// checkpoints, a fresh server serves it.
	cl.Close()
	for i := 11; i <= 20; i++ {
		if _, _, err := st.Append(int64(i), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, st2, addr2 := startStoreServer(t, fs, dir)
	defer srv2.Close()
	defer st2.Close()
	if got := st2.Engine().Dataset().Len(); got != 20 {
		t.Fatalf("recovered %d rows, want 20", got)
	}

	// The registration came back from the manifest: resume by key replays
	// prefixes 11..20 with their original sequence numbers, then goes live.
	cl2 := dialT(t, addr2)
	if _, _, err := cl2.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s2, err := cl2.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: lastPrefix})
	if err != nil {
		t.Fatalf("resume after restart: %v", err)
	}
	for i := 21; i <= 25; i++ {
		if _, _, err := st2.Append(int64(i), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	for lastPrefix < 25 {
		select {
		case ev, ok := <-s2.Events():
			if !ok {
				t.Fatalf("resumed stream closed at prefix %d", lastPrefix)
			}
			if ev.Seq != lastSeq+1 || ev.Prefix != lastPrefix+1 {
				t.Fatalf("splice broken: seq %d prefix %d after %d/%d", ev.Seq, ev.Prefix, lastSeq, lastPrefix)
			}
			lastSeq, lastPrefix = ev.Seq, ev.Prefix
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at prefix %d", lastPrefix)
		}
	}
}

// TestStreamPositionsAcrossRetentionRestart: one connection sees one id per
// record. Over a store whose retention has retired history, a look-back
// query names the same records before and after a restart, and a
// subscription made after the restart reports Decision ids equal to the ids
// a look-back query returns over the same rows.
func TestStreamPositionsAcrossRetentionRestart(t *testing.T) {
	fs := wal.NewMemFS()
	opts := store.Options{
		FS: fs, Sync: wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 64, RetainSpan: 300},
	}
	srv, st, addr := serveStore(t, "db", opts)
	rng := rand.New(rand.NewSource(3))
	const n, m = 2000, 120
	rows := make([]store.Row, n)
	ts := int64(0)
	for i := range rows {
		ts += 1 + int64(rng.Intn(3))
		rows[i] = store.Row{T: ts, Attrs: []float64{rng.Float64() * 100, rng.Float64() * 100}}
	}
	if got, _, _, err := st.AppendBatch(rows); err != nil || got != n {
		t.Fatalf("appended %d of %d rows: %v", got, n, err)
	}
	st.Engine().WaitSealed()
	st.Engine().WaitCompacted()
	st.WaitCheckpoints()
	base := st.Engine().RetiredRows()
	if base == 0 {
		t.Fatal("retention retired nothing; the test needs a nonzero base")
	}

	spec := QuerySpec{K: 2, Tau: 40, Start: ts - 250, End: ts, Anchor: "look-back", Weights: []float64{1, 0.5}}
	query := func(addr string, qs QuerySpec) []int {
		t.Helper()
		recs, _, err := dialT(t, addr).Query(Request{Dataset: "stream", QuerySpec: qs})
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, len(recs))
		for i, r := range recs {
			ids[i] = r.ID
		}
		return ids
	}
	before := query(addr, spec)
	if len(before) == 0 || before[0] < base {
		t.Fatalf("answer %v: want retained records, at or past stream position %d", before, base)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2, addr2 := serveStore(t, "db", opts)
	defer srv2.Close()
	defer st2.Close()
	if after := query(addr2, spec); !reflect.DeepEqual(after, before) {
		t.Fatalf("the restart renumbered the answer: before %v, after %v (base %d)", before, after, base)
	}

	// New rows start more than tau past the history, so a look-back window
	// over them holds exactly the rows the subscription observes.
	cl := dialT(t, addr2)
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := cl.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: spec.K, Tau: spec.Tau, Anchor: "look-back", Weights: spec.Weights}})
	if err != nil {
		t.Fatal(err)
	}
	first := ts + spec.Tau + 1
	for i := 0; i < m; i++ {
		if _, _, err := st2.Append(first+int64(2*i), []float64{rng.Float64() * 100, rng.Float64() * 100}); err != nil {
			t.Fatal(err)
		}
	}
	var durable []int
	for prefix := n; prefix < n+m; {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				t.Fatalf("stream closed at prefix %d", prefix)
			}
			prefix = ev.Prefix
			if d := ev.Decision; d != nil && d.Durable {
				durable = append(durable, d.ID)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out at prefix %d", prefix)
		}
	}
	if len(durable) == 0 || durable[0] != n {
		t.Fatalf("first decision names record %d, want stream position %d", durable[0], n)
	}
	tail := spec
	tail.Start, tail.End = first, first+int64(2*(m-1))
	if got := query(addr2, tail); !reflect.DeepEqual(got, durable) {
		t.Fatalf("query ids %v differ from the subscription's durable decisions %v", got, durable)
	}
}
