package wire

import (
	"net"
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
	st, err := store.Open(dir, 2, store.Options{
		FS: fs, Sync: wal.SyncAlways,
		Shard: core.LiveShardOptions{SealRows: 16},
	})
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

	// An ephemeral (events-only) subscription on the same store-backed
	// dataset must NOT be persisted: restart forgets it.
	eph := dialT(t, addr2)
	if _, _, err := eph.Hello(FeatureEvents); err != nil {
		t.Fatal(err)
	}
	es, err := eph.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if es.SubKey() != 0 {
		t.Fatalf("ephemeral subscription reported durable key %d", es.SubKey())
	}
	reg := st2.Registry()
	snap := reg.Snapshot()
	if len(snap) != 1 || snap[0].ID != key {
		t.Fatalf("persistable snapshot %+v, want exactly the durable registration %d", snap, key)
	}
}
