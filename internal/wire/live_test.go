package wire

import (
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
)

// startLiveServer serves an empty live dataset next to a batch one.
func startLiveServer(tb testing.TB) (*Server, *core.LiveEngine, *Client) {
	tb.Helper()
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(tb, 100, 3)
	if err := addStatic(srv, "batch", ds, nil); err != nil {
		tb.Fatal(err)
	}
	le := addLive(tb, srv, "stream", 2, []string{"points", "assists"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return srv, le, cl
}

// TestLiveAppendAndQuery drives the full wire loop: ingest rows in batches
// and check that queries between appends answer exactly like a local batch
// engine over the same prefix.
func TestLiveAppendAndQuery(t *testing.T) {
	_, le, cl := startLiveServer(t)
	ds := testDataset(t, 60, 9)

	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	liveSeen := false
	for _, in := range infos {
		switch in.Name {
		case "stream":
			liveSeen = true
			if !in.Live || in.Len != 0 || in.Dims != 2 {
				t.Fatalf("fresh live dataset info wrong: %+v", in)
			}
		case "batch":
			if in.Live {
				t.Fatal("batch dataset flagged live")
			}
		}
	}
	if !liveSeen {
		t.Fatal("live dataset not listed")
	}

	appended := 0
	for appended < ds.Len() {
		batch := 7
		if appended+batch > ds.Len() {
			batch = ds.Len() - appended
		}
		rows := make([]IngestRow, 0, batch)
		for j := 0; j < batch; j++ {
			rows = append(rows, IngestRow{Time: ds.Time(appended + j), Attrs: ds.Attrs(appended + j)})
		}
		resp, err := cl.Append("stream", rows)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Appended != batch {
			t.Fatalf("appended=%d want %d", resp.Appended, batch)
		}
		appended += batch

		// Query through the wire, compare with a batch engine over the prefix.
		got, _, err := cl.Query(Request{Dataset: "stream", QuerySpec: QuerySpec{K: 3, Tau: 12, Weights: []float64{1, 1}}})
		if err != nil {
			t.Fatal(err)
		}
		prefix := ds.Prefix(appended)
		lo, hi := prefix.Span()
		want, err := core.NewEngine(prefix, core.Options{}).DurableTopK(core.Query{
			K: 3, Tau: 12, Start: lo, End: hi, Scorer: score.MustLinear(1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Records) {
			t.Fatalf("prefix %d: wire %d records, batch %d", appended, len(got), len(want.Records))
		}
		for i := range got {
			w := want.Records[i]
			if got[i].ID != w.ID || got[i].Time != w.Time || got[i].Score != w.Score {
				t.Fatalf("prefix %d record %d: wire %+v batch %+v", appended, i, got[i], w)
			}
		}
	}
	if le.Len() != ds.Len() {
		t.Fatalf("live engine holds %d records, want %d", le.Len(), ds.Len())
	}

	// The scoring-expression path resolves the registered attribute names.
	if _, _, err := cl.Query(Request{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Expr: "points + 2*assists"}}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveAppendErrors pins the failure contract: non-live targets reject
// appends, empty batches are invalid, and a mid-batch rejection reports the
// committed prefix.
func TestLiveAppendErrors(t *testing.T) {
	_, le, cl := startLiveServer(t)

	if _, err := cl.Append("batch", []IngestRow{{Time: 1000, Attrs: []float64{1, 2}}}); err == nil ||
		!strings.Contains(err.Error(), "not live") {
		t.Fatalf("append to batch dataset: %v", err)
	}
	if _, err := cl.Append("stream", nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := cl.Append("nope", []IngestRow{{Time: 1, Attrs: []float64{1, 2}}}); err == nil {
		t.Fatal("unknown dataset accepted")
	}

	// Rows 1 and 2 commit; row 3 goes back in time and must reject with the
	// committed count intact.
	resp, err := cl.Append("stream", []IngestRow{
		{Time: 5, Attrs: []float64{1, 2}},
		{Time: 6, Attrs: []float64{3, 4}},
		{Time: 6, Attrs: []float64{5, 6}},
	})
	if err == nil {
		t.Fatal("non-increasing time accepted")
	}
	if resp == nil || resp.Appended != 2 {
		t.Fatalf("partial append response %+v, want Appended=2", resp)
	}
	if le.Len() != 2 {
		t.Fatalf("live engine holds %d records, want 2", le.Len())
	}

	// Wrong dimensionality, first row: nothing commits.
	resp, err = cl.Append("stream", []IngestRow{{Time: 9, Attrs: []float64{1}}})
	if err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if resp.Appended != 0 || le.Len() != 2 {
		t.Fatalf("dim-mismatch append committed rows: %+v len=%d", resp, le.Len())
	}
}

// TestIngestLock checks that wire appends are rejected while a server-side
// ingest stream owns the dataset, and flow again once it is released.
func TestIngestLock(t *testing.T) {
	srv, le, cl := startLiveServer(t)
	if err := srv.SetIngesting("stream", true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("stream", []IngestRow{{Time: 1, Attrs: []float64{1, 2}}}); err == nil ||
		!strings.Contains(err.Error(), "ingest stream") {
		t.Fatalf("append during ingest: %v", err)
	}
	if le.Len() != 0 {
		t.Fatal("locked append committed rows")
	}
	// Queries stay available throughout.
	if _, _, err := cl.Query(Request{Dataset: "batch", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetIngesting("stream", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("stream", []IngestRow{{Time: 1, Attrs: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetIngesting("batch", true); err == nil {
		t.Fatal("SetIngesting on a non-live dataset accepted")
	}
	if err := srv.SetIngesting("nope", true); err == nil {
		t.Fatal("SetIngesting on an unknown dataset accepted")
	}
}

// TestLiveShardedOverWire drives the live+sharded lifecycle through the wire:
// ingest rows into a live+sharded dataset in batches that cross seal
// boundaries, check the Datasets listing reports the shard count, and require
// every interleaved query to answer exactly like a local batch engine over
// the same prefix.
func TestLiveShardedOverWire(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	lse := addLiveSharded(t, srv, "stream", 2, []string{"points", "assists"}, core.LiveShardOptions{SealRows: 16})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	ds := testDataset(t, 70, 9)
	appended := 0
	for appended < ds.Len() {
		batch := 7
		if appended+batch > ds.Len() {
			batch = ds.Len() - appended
		}
		rows := make([]IngestRow, 0, batch)
		for j := 0; j < batch; j++ {
			rows = append(rows, IngestRow{Time: ds.Time(appended + j), Attrs: ds.Attrs(appended + j)})
		}
		resp, err := cl.Append("stream", rows)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Appended != batch {
			t.Fatalf("appended=%d want %d", resp.Appended, batch)
		}
		appended += batch

		got, _, err := cl.Query(Request{Dataset: "stream", QuerySpec: QuerySpec{K: 3, Tau: 12, Weights: []float64{1, 1}}})
		if err != nil {
			t.Fatal(err)
		}
		prefix := ds.Prefix(appended)
		lo, hi := prefix.Span()
		want, err := core.NewEngine(prefix, core.Options{}).DurableTopK(core.Query{
			K: 3, Tau: 12, Start: lo, End: hi, Scorer: score.MustLinear(1, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want.Records) {
			t.Fatalf("prefix %d: wire %d records, batch %d", appended, len(got), len(want.Records))
		}
		for i := range got {
			w := want.Records[i]
			if got[i].ID != w.ID || got[i].Time != w.Time || got[i].Score != w.Score {
				t.Fatalf("prefix %d record %d: wire %+v batch %+v", appended, i, got[i], w)
			}
		}
	}
	if lse.Seals() != 4 { // 70 rows / 16 per seal
		t.Fatalf("seals=%d want 4", lse.Seals())
	}

	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, in := range infos {
		if in.Name != "stream" {
			continue
		}
		found = true
		if !in.Live || in.Len != 70 || in.Shards != lse.NumShards() || in.Shards != 5 {
			t.Fatalf("live-sharded dataset info wrong: %+v (engine shards %d)", in, lse.NumShards())
		}
	}
	if !found {
		t.Fatal("live-sharded dataset not listed")
	}

	// The ingest lockout applies to live-sharded datasets too.
	if err := srv.SetIngesting("stream", true); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("stream", []IngestRow{{Time: 10000, Attrs: []float64{1, 2}}}); err == nil {
		t.Fatal("append during ingest accepted")
	}
	if err := srv.SetIngesting("stream", false); err != nil {
		t.Fatal(err)
	}
	// Expression scoring resolves the registered attribute names.
	if _, _, err := cl.Query(Request{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Expr: "points + 2*assists"}}); err != nil {
		t.Fatal(err)
	}
}
