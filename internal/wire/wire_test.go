package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
)

func testDataset(tb testing.TB, n int, seed int64) *data.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	times := make([]int64, n)
	attrs := make([][]float64, n)
	for i := 0; i < n; i++ {
		times[i] = int64(i + 1)
		attrs[i] = []float64{rng.Float64() * 50, rng.Float64() * 10}
	}
	ds, err := data.New(times, attrs)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// addStatic registers ds behind a default single engine.
func addStatic(srv *Server, name string, ds *data.Dataset, attrs []string) error {
	return srv.AddQuerier(name, core.NewEngine(ds, core.Options{}), attrs)
}

// addLive registers an empty plain live dataset of dims dimensions; the
// engine is both its query and its ingest surface.
func addLive(tb testing.TB, srv *Server, name string, dims int, attrs []string) *core.LiveEngine {
	tb.Helper()
	le, err := core.NewLiveEngine(dims, core.Options{}, core.LiveOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.AddLiveQuerier(name, le, le, attrs); err != nil {
		tb.Fatal(err)
	}
	return le
}

// addLiveSharded registers an empty live+sharded dataset under so.
func addLiveSharded(tb testing.TB, srv *Server, name string, dims int, attrs []string, so core.LiveShardOptions) *core.LiveShardedEngine {
	tb.Helper()
	lse, err := core.NewLiveShardedEngine(dims, core.Options{}, core.LiveOptions{}, so)
	if err != nil {
		tb.Fatal(err)
	}
	if err := srv.AddLiveQuerier(name, lse, lse, attrs); err != nil {
		tb.Fatal(err)
	}
	return lse
}

// startServer returns a ready server on a loopback listener plus a dialed
// client; both are torn down with the test.
func startServer(tb testing.TB) (*Server, *Client) {
	tb.Helper()
	srv := NewServer(func(string, ...interface{}) {}) // quiet logs in tests
	ds := testDataset(tb, 500, 1)
	if err := addStatic(srv, "games", ds, []string{"points", "assists"}); err != nil {
		tb.Fatal(err)
	}
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
	return srv, cl
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Request{V: Version, Op: OpQuery, Dataset: "d", QuerySpec: QuerySpec{K: 3, Weights: []float64{1, 2}}}
	if err := WriteFrame(&buf, &in); err != nil {
		t.Fatal(err)
	}
	var out Request
	if err := ReadFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	var out Request
	err := ReadFrame(bytes.NewReader(hdr[:]), &out)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Request{V: Version, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	var out Request
	if err := ReadFrame(bytes.NewReader(trunc), &out); err == nil {
		t.Fatal("truncated frame decoded without error")
	}
}

func TestFrameGarbageJSON(t *testing.T) {
	payload := []byte("{nope")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf.Write(hdr[:])
	buf.Write(payload)
	var out Request
	if err := ReadFrame(&buf, &out); err == nil {
		t.Fatal("garbage JSON decoded without error")
	}
}

func TestPingAndDatasets(t *testing.T) {
	_, cl := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "games" {
		t.Fatalf("datasets = %+v, want one entry named games", infos)
	}
	d := infos[0]
	if d.Len != 500 || d.Dims != 2 || d.Start != 1 || d.End != 500 {
		t.Errorf("dataset info %+v has wrong shape", d)
	}
	if len(d.Attrs) != 2 || d.Attrs[0] != "points" {
		t.Errorf("attribute names %v not served", d.Attrs)
	}
}

func TestQueryWithWeightsMatchesLocal(t *testing.T) {
	srv, cl := startServer(t)
	recs, st, err := cl.Query(Request{
		Dataset:   "games",
		QuerySpec: QuerySpec{K: 2, Tau: 60, Weights: []float64{1, 0.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Algorithm == "" {
		t.Fatal("missing stats")
	}
	// Compare against a direct engine evaluation.
	sv, err := srv.lookup("games")
	if err != nil {
		t.Fatal(err)
	}
	ds := sv.eng.Dataset()
	want := core.BruteForce(ds, score.MustLinear(1, 0.5), 2, 60, 1, 500, core.LookBack)
	if len(recs) != len(want) {
		t.Fatalf("got %d records, oracle %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.ID != want[i] {
			t.Fatalf("record %d: id %d, oracle %d", i, r.ID, want[i])
		}
	}
}

func TestQueryWithExpression(t *testing.T) {
	_, cl := startServer(t)
	recs, _, err := cl.Query(Request{
		Dataset: "games",
		QuerySpec: QuerySpec{
			K: 1, Tau: 100,
			Expr: "points + 4*log1p(assists)",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("expression query returned nothing")
	}
	// Positional syntax works too and yields the same answer.
	recs2, _, err := cl.Query(Request{
		Dataset: "games",
		QuerySpec: QuerySpec{
			K: 1, Tau: 100,
			Expr: "x0 + 4*log1p(x1)",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, recs2) {
		t.Fatal("named and positional expressions disagree")
	}
}

func TestQueryDurationsAndAnchors(t *testing.T) {
	_, cl := startServer(t)
	recs, _, err := cl.Query(Request{
		Dataset: "games",
		QuerySpec: QuerySpec{
			K: 1, Tau: 50, Weights: []float64{1, 0},
			WithDurations: true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.MaxDuration < 50 && !r.FullHistory {
			t.Fatalf("durable record %d reports max duration %d < tau", r.ID, r.MaxDuration)
		}
	}
	// Mid-anchored query over the wire.
	mid, _, err := cl.Query(Request{
		Dataset: "games",
		QuerySpec: QuerySpec{
			K: 1, Tau: 50, Lead: 25, Anchor: "general",
			Weights: []float64{1, 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mid) == 0 {
		t.Fatal("mid-anchored query returned nothing")
	}
	if _, _, err := cl.Query(Request{
		Dataset:   "games",
		QuerySpec: QuerySpec{K: 1, Tau: 50, Anchor: "sideways", Weights: []float64{1, 0}},
	}); err == nil || !strings.Contains(err.Error(), "anchor") {
		t.Fatalf("bad anchor: got %v", err)
	}
}

func TestExplainOverWire(t *testing.T) {
	_, cl := startServer(t)
	plan, err := cl.Explain(Request{
		Dataset:   "games",
		QuerySpec: QuerySpec{K: 5, Tau: 100, Weights: []float64{1, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []string{"plan:", "t-hop", "E|S|"} {
		if !strings.Contains(plan, tok) {
			t.Errorf("explain output missing %q:\n%s", tok, plan)
		}
	}
}

func TestRequestErrors(t *testing.T) {
	_, cl := startServer(t)
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"unknown dataset", Request{Op: OpQuery, Dataset: "nope", QuerySpec: QuerySpec{K: 1, Tau: 1, Weights: []float64{1, 1}}}, "unknown dataset"},
		{"no scorer", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 1, Tau: 1}}, "weights or expr"},
		{"both scorers", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 1, Tau: 1, Weights: []float64{1, 1}, Expr: "x0"}}, "mutually exclusive"},
		{"bad expression", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 1, Tau: 1, Expr: "(("}}, "expr"},
		{"bad algorithm", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 1, Tau: 1, Weights: []float64{1, 1}, Algorithm: "warp"}}, "unknown algorithm"},
		{"bad k", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 0, Tau: 1, Weights: []float64{1, 1}}}, "k must be"},
		{"wrong dims", Request{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 1, Tau: 1, Weights: []float64{1}}}, "dimensionality"},
		{"unknown op", Request{Op: "dance"}, "unknown op"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := cl.Do(Request{V: Version}.merge(c.req))
			if err != nil {
				t.Fatal(err)
			}
			if resp.OK {
				t.Fatal("request unexpectedly succeeded")
			}
			if !strings.Contains(resp.Error, c.want) {
				t.Fatalf("error %q does not contain %q", resp.Error, c.want)
			}
		})
	}
}

// merge overlays non-zero fields for table-driven error tests.
func (r Request) merge(o Request) Request {
	o.V = r.V
	return o
}

func TestVersionMismatch(t *testing.T) {
	_, cl := startServer(t)
	resp, err := cl.Do(Request{Op: OpPing}) // Do stamps the version; craft manually below
	if err != nil || !resp.OK {
		t.Fatalf("ping failed: %v %+v", err, resp)
	}
	// Raw frame with a wrong version.
	conn, err := net.Dial("tcp", cl.conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteFrame(conn, &Request{V: 99, Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	var raw Response
	if err := ReadFrame(conn, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.OK || !strings.Contains(raw.Error, "version") {
		t.Fatalf("version mismatch not rejected: %+v", raw)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t)
	// Find the listener address through a fresh client's view.
	var addr string
	srv.lnMu.Lock()
	for ln := range srv.lns {
		addr = ln.Addr().String()
	}
	srv.lnMu.Unlock()

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for rep := 0; rep < 10; rep++ {
				recs, _, err := cl.Query(Request{
					Dataset: "games",
					QuerySpec: QuerySpec{
						K: 1 + i%3, Tau: int64(20 + 10*i),
						Weights: []float64{1, float64(i)},
					},
				})
				if err != nil {
					errs <- err
					return
				}
				if len(recs) == 0 {
					errs <- errors.New("empty answer")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServeConnOverPipe(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	if err := addStatic(srv, "d", testDataset(t, 100, 2), nil); err != nil {
		t.Fatal(err)
	}
	cEnd, sEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		srv.ServeConn(sEnd)
		close(done)
	}()
	cl := NewClient(cEnd)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := cl.Query(Request{Dataset: "d", QuerySpec: QuerySpec{K: 1, Tau: 10, Weights: []float64{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records over pipe")
	}
	cl.Close()
	<-done
}

func TestAddValidation(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(t, 10, 3)
	if err := addStatic(srv, "", ds, nil); err == nil {
		t.Error("empty name accepted")
	}
	if err := addStatic(srv, "d", ds, []string{"one"}); err == nil {
		t.Error("wrong attribute-name count accepted")
	}
	if err := addStatic(srv, "d", ds, []string{"min", "x"}); err == nil {
		t.Error("builtin-colliding attribute name accepted")
	}
	if err := addStatic(srv, "d", ds, nil); err != nil {
		t.Fatal(err)
	}
	if err := addStatic(srv, "d", ds, nil); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestWriteFrameRejectsUnmarshalable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, func() {}); err == nil {
		t.Fatal("function value marshaled")
	}
}

var _ io.Closer = (*Client)(nil)

func TestMostDurableOverWire(t *testing.T) {
	srv, cl := startServer(t)
	recs, err := cl.MostDurable(Request{
		Dataset:   "games",
		QuerySpec: QuerySpec{K: 1, N: 5, Weights: []float64{1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].MaxDuration > recs[i-1].MaxDuration {
			t.Fatalf("durations not descending: %v", recs)
		}
	}
	// Cross-check the champion against the engine directly.
	sv, err := srv.lookup("games")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sv.eng.MostDurable(1, score.MustLinear(1, 0), core.LookBack, 5)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].ID != want[0].ID || recs[0].MaxDuration != want[0].Duration {
		t.Fatalf("champion %+v, engine says %+v", recs[0], want[0])
	}

	// Expression scorers and the look-ahead anchor both work.
	ahead, err := cl.MostDurable(Request{
		Dataset: "games",
		QuerySpec: QuerySpec{
			K: 1, N: 3, Anchor: "look-ahead",
			Expr: "points + log1p(assists)",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ahead) != 3 {
		t.Fatalf("look-ahead most-durable returned %d records", len(ahead))
	}

	// Error taxonomy.
	if _, err := cl.MostDurable(Request{Dataset: "games", QuerySpec: QuerySpec{K: 1, N: 0, Weights: []float64{1, 0}}}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := cl.MostDurable(Request{Dataset: "games", QuerySpec: QuerySpec{K: 1, N: 2, Anchor: "general", Weights: []float64{1, 0}}}); err == nil {
		t.Error("general anchor accepted for most-durable")
	}
}

// TestShardedDatasetOverWire registers the same dataset twice — one plain
// engine, one time-sharded — and checks that every wire operation returns
// identical answers through both.
// forwardingQuerier is a Querier decorator as an embedder would write one
// (tracing, metering): the embedded interface hides the engine's optional
// capabilities, so the ones that matter are forwarded by hand.
type forwardingQuerier struct{ core.Querier }

func (q forwardingQuerier) NumShards() int {
	return q.Querier.(interface{ NumShards() int }).NumShards()
}

func TestShardedDatasetOverWire(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(t, 600, 7)
	// Register the plain engine pre-built through AddQuerier, exercising
	// the same path durserved's sharded registration takes.
	if err := srv.AddQuerier("plain", core.NewEngine(ds, core.Options{}), nil); err != nil {
		t.Fatal(err)
	}
	err := srv.AddQuerier("sharded", core.NewShardedEngine(ds, core.Options{}, core.ShardOptions{Shards: 4}), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddQuerier("sharded", core.NewShardedEngine(ds, core.Options{}, core.ShardOptions{Shards: 2}), nil); err == nil {
		t.Fatal("duplicate sharded registration accepted")
	}
	// A decorated engine: the server must find the shard count behind it.
	wrapped := forwardingQuerier{core.NewShardedEngine(ds, core.Options{}, core.ShardOptions{Shards: 3})}
	if err := srv.AddQuerier("wrapped", wrapped, nil); err != nil {
		t.Fatal(err)
	}
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

	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	shards := make(map[string]int)
	for _, in := range infos {
		shards[in.Name] = in.Shards
	}
	if want := map[string]int{"plain": 0, "sharded": 4, "wrapped": 3}; !reflect.DeepEqual(shards, want) {
		t.Fatalf("dataset shard counts %v, want %v", shards, want)
	}

	base := Request{QuerySpec: QuerySpec{K: 3, Tau: 80, Weights: []float64{1, 0.5}, WithDurations: true}}
	reqPlain, reqSharded := base, base
	reqPlain.Dataset, reqSharded.Dataset = "plain", "sharded"
	wantRecs, _, err := cl.Query(reqPlain)
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, _, err := cl.Query(reqSharded)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRecs) == 0 || !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("sharded wire answer differs:\n got %+v\nwant %+v", gotRecs, wantRecs)
	}

	// A narrow interval lets the router skip shards; the count must reach
	// the client (and stay zero through the plain engine).
	lo, _ := ds.Span()
	narrow := Request{QuerySpec: QuerySpec{K: 3, Tau: 5, Start: lo, End: lo + 10, ExplicitInterval: true, Weights: []float64{1, 0.5}}}
	for name, wantPruned := range map[string]bool{"plain": false, "sharded": true} {
		narrow.Dataset = name
		_, st, err := cl.Query(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if (st.ShardsPruned > 0) != wantPruned {
			t.Fatalf("%s: shardsPruned = %d over the wire, want pruning %v", name, st.ShardsPruned, wantPruned)
		}
	}

	for _, name := range []string{"plain", "sharded"} {
		req := base
		req.Dataset = name
		req.N = 3
		top, err := cl.MostDurable(req)
		if err != nil || len(top) != 3 {
			t.Fatalf("%s most-durable: %v (%d records)", name, err, len(top))
		}
		plan, err := cl.Explain(req)
		if err != nil || plan == "" {
			t.Fatalf("%s explain: %v %q", name, err, plan)
		}
	}
}
