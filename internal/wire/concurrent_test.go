package wire

import (
	"encoding/json"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/serve"
)

// startConcurrentServer returns a server in pipelined mode (scheduler
// installed, result cache when cacheSize > 0) listening on loopback TCP.
func startConcurrentServer(tb testing.TB, workers, cacheSize int) (*Server, *serve.Cache, string) {
	tb.Helper()
	srv := NewServer(func(string, ...interface{}) {})
	srv.SetScheduler(serve.NewScheduler(workers))
	var cache *serve.Cache
	if cacheSize > 0 {
		cache = serve.NewCache(cacheSize)
		srv.SetCache(cache)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, cache, ln.Addr().String()
}

// TestPipelinedOrdering writes a burst of frames without reading and checks
// the responses come back in request order: queries evaluate concurrently on
// the scheduler while pings are handled inline on the read loop, so any FIFO
// violation between the two paths shows up as a shape mismatch.
func TestPipelinedOrdering(t *testing.T) {
	srv, _, addr := startConcurrentServer(t, 4, 0)
	if err := addStatic(srv, "games", testDataset(t, 300, 3), nil); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const pairs = 16
	for i := 0; i < pairs; i++ {
		q := Request{V: Version, Op: OpQuery, Dataset: "games",
			QuerySpec: QuerySpec{K: 1 + i%4, Tau: 10, Weights: []float64{1, 0.5}}}
		if err := WriteFrame(conn, &q); err != nil {
			t.Fatal(err)
		}
		p := Request{V: Version, Op: OpPing}
		if err := WriteFrame(conn, &p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*pairs; i++ {
		var resp Response
		if err := ReadFrame(conn, &resp); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if !resp.OK {
			t.Fatalf("response %d: %s", i, resp.Error)
		}
		if wantQuery := i%2 == 0; (resp.Stats != nil) != wantQuery {
			t.Fatalf("response %d out of order: stats=%v, want query=%v",
				i, resp.Stats != nil, wantQuery)
		}
	}
}

// TestExplicitIntervalZero is the regression test for the [0,0] interval
// rewrite: without the flag a start==end==0 request keeps meaning "whole
// span" (backward compatibility), with it the server queries the point
// interval [0,0], which is addressable on datasets starting at time 0.
func TestExplicitIntervalZero(t *testing.T) {
	times := make([]int64, 50)
	attrs := make([][]float64, 50)
	for i := range times {
		times[i] = int64(i) // record 0 sits at time 0
		attrs[i] = []float64{float64(i % 7)}
	}
	ds, err := data.New(times, attrs)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(func(string, ...interface{}) {})
	if err := addStatic(srv, "zero", ds, nil); err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(ds, core.Options{})
	scorer := mustScorer(t, 1)

	base := Request{V: Version, Op: OpQuery, Dataset: "zero",
		QuerySpec: QuerySpec{K: 2, Tau: 3, Weights: []float64{1}}}

	legacy := srv.handle(&base)
	if !legacy.OK {
		t.Fatalf("legacy whole-span query: %s", legacy.Error)
	}
	wantSpan, err := eng.DurableTopK(core.Query{K: 2, Tau: 3, Start: 0, End: 49, Scorer: scorer})
	if err != nil {
		t.Fatal(err)
	}
	if len(legacy.Records) != len(wantSpan.Records) {
		t.Fatalf("legacy [0,0] answered %d records, whole span has %d",
			len(legacy.Records), len(wantSpan.Records))
	}

	explicit := base
	explicit.ExplicitInterval = true
	got := srv.handle(&explicit)
	if !got.OK {
		t.Fatalf("explicit [0,0] query: %s", got.Error)
	}
	want, err := eng.DurableTopK(core.Query{K: 2, Tau: 3, Start: 0, End: 0, Scorer: scorer})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("explicit [0,0]: got %d records, want %d", len(got.Records), len(want.Records))
	}
	for i, r := range got.Records {
		w := want.Records[i]
		if r.ID != w.ID || r.Time != w.Time || r.Score != w.Score {
			t.Fatalf("explicit [0,0] record %d: got %+v, want %+v", i, r, w)
		}
	}
	if reflect.DeepEqual(got.Records, legacy.Records) {
		t.Fatal("explicit [0,0] answered the whole span; the rewrite was not suppressed")
	}
}

func mustScorer(t *testing.T, weights ...float64) *score.Linear {
	t.Helper()
	s, err := score.NewLinear(weights)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConnTimeoutPerIteration is the regression test for the timeout being
// read once per connection: a timeout installed while a connection is already
// serving must apply from its next request on, disconnecting the client once
// it idles past the bound.
func TestConnTimeoutPerIteration(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	if err := addStatic(srv, "games", testDataset(t, 50, 4), nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil { // connection established and serving
		t.Fatal(err)
	}

	srv.SetConnTimeout(75 * time.Millisecond)
	// One more request so the serving loop re-arms its read deadline with the
	// new timeout (the old code captured the value before the loop and would
	// never see it).
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // idle past the bound; server disconnects
	if err := cl.Ping(); err == nil {
		t.Fatal("connection survived idling past a timeout installed mid-connection")
	}
}

// TestResultCacheEpochInvalidation checks the whole-result cache end to end
// on a live dataset: an exact repeat at an unchanged epoch replays the stored
// frame (the very bytes the miss encoded and stored), an append retires the
// epoch, and the recomputed answer — read by decoding its frame — is equal in
// content for an interval the append cannot affect.
func TestResultCacheEpochInvalidation(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	cache := serve.NewCache(64)
	srv.SetCache(cache)
	le := addLive(t, srv, "live", 1, nil)
	for i := 1; i <= 20; i++ {
		if _, _, err := le.Append(int64(i), []float64{float64(i % 5)}); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{V: Version, Op: OpQuery, Dataset: "live", QuerySpec: QuerySpec{
		K: 2, Tau: 4, Start: 1, End: 20, ExplicitInterval: true, Weights: []float64{1}}}

	r1 := srv.handle(&req)
	if !r1.OK {
		t.Fatalf("first query: %s", r1.Error)
	}
	r2 := srv.handle(&req)
	if !sameBytes(r1.payload, r2.payload) {
		t.Fatal("repeat at unchanged epoch was recomputed, not replayed")
	}
	st := cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats after repeat: %+v", st)
	}

	// A later record cannot change look-back answers inside [1,20], but it
	// must still retire the cached entry — the cache may not know that.
	if _, _, err := le.Append(21, []float64{100}); err != nil {
		t.Fatal(err)
	}
	r3 := srv.handle(&req)
	if !r3.OK {
		t.Fatalf("post-append query: %s", r3.Error)
	}
	if sameBytes(r3.payload, r2.payload) {
		t.Fatal("cache served a pre-append response after the epoch changed")
	}
	var before, after Response
	if err := json.Unmarshal(r2.payload, &before); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(r3.payload, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Records) == 0 || !reflect.DeepEqual(after.Records, before.Records) {
		t.Fatalf("recomputed answer diverged: %+v vs %+v", after.Records, before.Records)
	}
}

// sameBytes reports whether a and b are one slice: the same non-empty
// backing array, not merely equal contents.
func sameBytes(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// TestExprCompileCache checks that repeated expression sources compile once
// per dataset and that distinct sources stay distinct.
func TestExprCompileCache(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	if err := addStatic(srv, "games", testDataset(t, 50, 5), []string{"points", "assists"}); err != nil {
		t.Fatal(err)
	}
	sv, err := srv.lookup("games")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := requestScorer(&Request{QuerySpec: QuerySpec{Expr: "points + 2*assists"}}, sv)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := requestScorer(&Request{QuerySpec: QuerySpec{Expr: "points + 2*assists"}}, sv)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("identical sources compiled twice; cache missed")
	}
	s3, err := requestScorer(&Request{QuerySpec: QuerySpec{Expr: "points"}}, sv)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Fatal("distinct sources collided in the compile cache")
	}
	if _, err := requestScorer(&Request{QuerySpec: QuerySpec{Expr: "points +"}}, sv); err == nil {
		t.Fatal("invalid expression compiled")
	}
}

// TestConcurrentServingStress drives the full concurrent path under the race
// detector: a live+sharded dataset ingests and seals while querier goroutines
// fire pipelined wire queries, and at quiesce barriers every strategy's
// answer — cached and uncached — is compared bit for bit against a fresh
// batch engine built over the exact same prefix. Scaled down but not skipped
// in -short mode so the CI race job runs it.
func TestConcurrentServingStress(t *testing.T) {
	batches, batchRows, queriers := 12, 50, 4
	if testing.Short() {
		batches, batchRows, queriers = 8, 30, 3
	}
	srv, cache, addr := startConcurrentServer(t, 4, 512)
	addLiveSharded(t, srv, "stream", 2, nil, core.LiveShardOptions{SealRows: 64})

	appender, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer appender.Close()

	var (
		mirrorTimes []int64
		mirrorAttrs [][]float64
		lastTime    atomic.Int64
	)
	rng := rand.New(rand.NewSource(42))
	appendBatch := func() {
		rows := make([]IngestRow, batchRows)
		for i := range rows {
			tm := lastTime.Load() + 1
			at := []float64{rng.Float64() * 50, rng.Float64() * 10}
			rows[i] = IngestRow{Time: tm, Attrs: at}
			mirrorTimes = append(mirrorTimes, tm)
			mirrorAttrs = append(mirrorAttrs, at)
			lastTime.Store(tm)
		}
		if resp, err := appender.Append("stream", rows); err != nil {
			t.Errorf("append: %v", err)
		} else if resp.Appended != batchRows {
			t.Errorf("append committed %d/%d rows", resp.Appended, batchRows)
		}
	}
	appendBatch() // queriers never see an empty dataset

	// Random read load for the whole run: small parameter pool so the cache
	// sees repeats, every response must be well-formed and OK.
	weightPool := [][]float64{{1, 0.5}, {0.2, 2}, {3, 0}}
	algoPool := []string{"", "t-base", "t-hop", "s-base", "s-band", "s-hop"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < queriers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Errorf("querier dial: %v", err)
				return
			}
			defer cl.Close()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := Request{Dataset: "stream", QuerySpec: QuerySpec{
					K:       1 + qrng.Intn(5),
					Tau:     int64(5 + qrng.Intn(20)),
					Weights: weightPool[qrng.Intn(len(weightPool))],
				}}
				req.Algorithm = algoPool[qrng.Intn(len(algoPool))]
				if max := lastTime.Load(); qrng.Intn(2) == 0 && max > 2 {
					a := 1 + qrng.Int63n(max-1)
					req.Start, req.End = a, a+qrng.Int63n(max-a)+1
					req.ExplicitInterval = true
				}
				if _, _, err := cl.Query(req); err != nil {
					t.Errorf("concurrent query %+v: %v", req, err)
					return
				}
			}
		}(int64(100 + g))
	}

	checker, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer checker.Close()

	// checkOne compares a wire answer (asked twice: cold, then likely cached)
	// against the batch engine built over the same prefix.
	checkOne := func(eng *core.Engine, span int64, req Request, q core.Query) {
		t.Helper()
		want, err := eng.DurableTopK(q)
		if err != nil {
			t.Fatalf("batch reference %+v: %v", q, err)
		}
		for round := 0; round < 2; round++ {
			recs, _, err := checker.Query(req)
			if err != nil {
				t.Fatalf("wire query %+v (round %d): %v", req, round, err)
			}
			if len(recs) != len(want.Records) {
				t.Fatalf("%s round %d: %d records, batch says %d",
					req.Algorithm, round, len(recs), len(want.Records))
			}
			for i, r := range recs {
				w := want.Records[i]
				if r.ID != w.ID || r.Time != w.Time || r.Score != w.Score || r.MaxDuration != w.MaxDuration {
					t.Fatalf("%s round %d record %d: wire %+v, batch %+v",
						req.Algorithm, round, i, r, w)
				}
			}
		}
	}

	barrier := func() {
		n := len(mirrorTimes)
		ds, err := data.New(mirrorTimes[:n:n], mirrorAttrs[:n:n])
		if err != nil {
			t.Fatal(err)
		}
		eng := core.NewEngine(ds, core.Options{})
		span := mirrorTimes[n-1]
		for _, algo := range []string{"t-base", "t-hop", "s-base", "s-band", "s-hop"} {
			alg, err := core.ParseAlgorithm(algo)
			if err != nil {
				t.Fatal(err)
			}
			req := Request{Dataset: "stream", QuerySpec: QuerySpec{K: 3, Tau: 20, Algorithm: algo,
				Weights: []float64{1, 0.5}, WithDurations: algo == "s-hop"}}
			q := core.Query{K: 3, Tau: 20, Start: 1, End: span, Algorithm: alg,
				Scorer: mustScorer(t, 1, 0.5), WithDurations: algo == "s-hop"}
			checkOne(eng, span, req, q)
		}
		// Look-ahead through the default strategy, and the most-durable
		// report, so both cached handlers face the moving dataset.
		req := Request{Dataset: "stream",
			QuerySpec: QuerySpec{K: 2, Tau: 15, Anchor: "look-ahead", Weights: []float64{0.2, 2}}}
		q := core.Query{K: 2, Tau: 15, Start: 1, End: span, Anchor: core.LookAhead,
			Scorer: mustScorer(t, 0.2, 2)}
		checkOne(eng, span, req, q)

		wantTop, err := eng.MostDurable(3, mustScorer(t, 1, 0.5), core.LookBack, 5)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ {
			recs, err := checker.MostDurable(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 3, N: 5, Weights: []float64{1, 0.5}}})
			if err != nil {
				t.Fatalf("most-durable round %d: %v", round, err)
			}
			if len(recs) != len(wantTop) {
				t.Fatalf("most-durable round %d: %d records, batch says %d", round, len(recs), len(wantTop))
			}
			for i, r := range recs {
				w := wantTop[i]
				if r.ID != w.ID || r.Time != w.Time || r.Score != w.Score || r.MaxDuration != w.Duration {
					t.Fatalf("most-durable round %d record %d: wire %+v, batch %+v", round, i, r, w)
				}
			}
		}
	}

	for b := 1; b < batches; b++ {
		appendBatch()
		if b%3 == 0 {
			barrier()
		}
	}
	barrier()
	close(stop)
	wg.Wait()

	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("whole-result cache never hit; repeats at stable epochs must replay")
	}
	t.Logf("cache stats: %+v (hit rate %.2f)", st, st.HitRate())
}
