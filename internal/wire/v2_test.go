package wire

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/serve"
)

// startV2Server serves a live dataset; pipelined when workers > 0.
func startV2Server(tb testing.TB, workers int) (*Server, string) {
	tb.Helper()
	srv := NewServer(func(string, ...interface{}) {})
	if workers > 0 {
		srv.SetScheduler(serve.NewScheduler(workers))
	}
	addLive(tb, srv, "stream", 2, []string{"points", "assists"})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dialT(tb testing.TB, addr string) *Client {
	tb.Helper()
	cl, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return cl
}

func TestHelloNegotiation(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, addr := startV2Server(t, workers)

			// A newer client is negotiated down to v2 and gets its features.
			cl := dialT(t, addr)
			v, feats, err := cl.Hello(FeatureEvents, FeatureBackfill, "frobnicate")
			if err != nil {
				t.Fatal(err)
			}
			if v != Version2 {
				t.Fatalf("negotiated %d, want %d", v, Version2)
			}
			if !reflect.DeepEqual(feats, []string{FeatureEvents, FeatureBackfill}) {
				t.Fatalf("accepted features %v, want [%s %s] (unknown flags must be dropped)", feats, FeatureEvents, FeatureBackfill)
			}
			if !cl.V2() {
				t.Fatal("client did not record the v2 session")
			}
			// The old request surface keeps working on the upgraded session.
			if err := cl.Ping(); err != nil {
				t.Fatalf("ping after hello: %v", err)
			}
			if _, err := cl.Datasets(); err != nil {
				t.Fatalf("datasets after hello: %v", err)
			}
			// A second hello is a protocol error but not fatal.
			if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err == nil {
				t.Fatal("repeat hello accepted")
			}
			if err := cl.Ping(); err != nil {
				t.Fatalf("ping after rejected repeat hello: %v", err)
			}

			// A hello that only speaks v1 stays v1: no features, no upgrade.
			old := dialT(t, addr)
			resp, err := old.Do(Request{Op: OpHello, Features: []string{FeatureEvents}})
			if err != nil {
				t.Fatal(err)
			}
			if !resp.OK || resp.V != Version || len(resp.Features) != 0 {
				t.Fatalf("v1 hello response %+v, want ok v1 no features", resp)
			}
			if old.V2() {
				t.Fatal("v1 hello upgraded the client")
			}
			if err := old.Ping(); err != nil {
				t.Fatalf("ping after v1 hello: %v", err)
			}
		})
	}
}

// TestV1V2Interop is the compatibility matrix: v1 clients against the
// upgraded server are byte-for-byte undisturbed, and v2 sessions reject the
// subscription ops until negotiated.
func TestV1V2Interop(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, addr := startV2Server(t, workers)

			// Plain v1 client: appends and queries work; it never says hello.
			v1 := dialT(t, addr)
			if _, err := v1.Append("stream", []IngestRow{{Time: 1, Attrs: []float64{1, 2}}}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := v1.Query(Request{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}); err != nil {
				t.Fatal(err)
			}
			// v2 ops on a v1 connection are rejected, connection stays usable.
			if _, err := v1.do(Request{Op: OpSubscribe, Dataset: "stream",
				QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}); err == nil {
				t.Fatal("subscribe accepted without hello")
			}
			if _, err := v1.do(Request{Op: OpUnsubscribe, SubID: 1}); err == nil {
				t.Fatal("unsubscribe accepted without hello")
			}
			if err := v1.Ping(); err != nil {
				t.Fatalf("v1 connection broken after rejected v2 op: %v", err)
			}

			// Client-side guard mirrors it.
			if _, err := v1.Subscribe(Request{Dataset: "stream"}); err == nil {
				t.Fatal("client allowed Subscribe before Hello")
			}

			// A v2 session that did not offer the events feature cannot
			// subscribe.
			noEv := dialT(t, addr)
			if _, _, err := noEv.Hello(); err != nil {
				t.Fatal(err)
			}
			if _, err := noEv.Subscribe(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}); err == nil {
				t.Fatal("subscribe accepted without the events feature")
			}

			// Full v2 session: v1 ops and v2 ops interleave on one connection.
			v2 := dialT(t, addr)
			if _, _, err := v2.Hello(FeatureEvents, FeatureBackfill); err != nil {
				t.Fatal(err)
			}
			s, err := v2.Subscribe(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v2.Append("stream", []IngestRow{{Time: 2, Attrs: []float64{3, 1}}}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := v2.Query(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}); err != nil {
				t.Fatal(err)
			}
			select {
			case ev := <-s.Events():
				if ev.SubID != s.ID() || ev.Prefix != 2 || ev.Decision == nil {
					t.Fatalf("event %+v, want decision at prefix 2", ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("no event for the append on the same connection")
			}
			if err := v2.Unsubscribe(s); err != nil {
				t.Fatal(err)
			}
			// Invalid subscribe requests answer errors without killing the
			// session.
			bad := []Request{
				{Dataset: "nope", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}},
				{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}, Anchor: "general"}},
				{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}, Lead: 3}},
				{Dataset: "stream", QuerySpec: QuerySpec{K: 0, Tau: 5, Weights: []float64{1, 1}}},
				{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5}},
			}
			for _, req := range bad {
				if _, err := v2.Subscribe(req); err == nil {
					t.Fatalf("invalid subscribe %+v accepted", req)
				}
			}
			if err := v2.Ping(); err != nil {
				t.Fatalf("session broken after rejected subscribes: %v", err)
			}
		})
	}
}

// TestSubscriptionLifecycle checks the event stream end to end on one
// serial connection pair: decisions and confirmations match a standalone
// monitor, the unsubscribe flush is truncated, and the channel closes.
func TestSubscriptionLifecycle(t *testing.T) {
	_, addr := startV2Server(t, 0)
	sub := dialT(t, addr)
	if _, _, err := sub.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := sub.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: 2, Tau: 6, Weights: []float64{1, 0.5}}})
	if err != nil {
		t.Fatal(err)
	}

	feeder := dialT(t, addr)
	rng := rand.New(rand.NewSource(11))
	ref := newRefMonitor(t, 2, 6, score.MustLinear(1, 0.5))
	var tm int64
	for i := 0; i < 40; i++ {
		tm += int64(1 + rng.Intn(3))
		attrs := []float64{rng.Float64() * 10, rng.Float64() * 10}
		if _, err := feeder.Append("stream", []IngestRow{{Time: tm, Attrs: attrs}}); err != nil {
			t.Fatal(err)
		}
		wantDec, wantConfs := ref.observe(t, tm, attrs)
		select {
		case ev := <-s.Events():
			if ev.Prefix != i+1 {
				t.Fatalf("append %d: event prefix %d", i, ev.Prefix)
			}
			if ev.Decision == nil || *ev.Decision != wantDec {
				t.Fatalf("append %d: decision %+v, monitor says %+v", i, ev.Decision, wantDec)
			}
			if !reflect.DeepEqual(ev.Confirms, wantConfs) {
				t.Fatalf("append %d: confirms %+v, monitor says %+v", i, ev.Confirms, wantConfs)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("append %d: no event", i)
		}
	}

	wantFinal := ref.finish()
	if err := sub.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
	var final []Event
	for ev := range s.Events() {
		final = append(final, ev)
	}
	if len(wantFinal) == 0 {
		t.Fatal("test stream ended with nothing pending; raise tau")
	}
	if len(final) != 1 || !reflect.DeepEqual(final[0].Confirms, wantFinal) {
		t.Fatalf("final flush %+v, want confirms %+v", final, wantFinal)
	}
	if s.Dropped() != 0 {
		t.Fatalf("client dropped %d events", s.Dropped())
	}
}

// TestServerCloseDrainsEvents: a server Close mid-stream must still deliver
// the events queued for a subscriber before its connection dies. Close
// detaches the subscription rather than dropping it, so nothing is flushed
// as a truncated confirmation.
func TestServerCloseDrainsEvents(t *testing.T) {
	for _, workers := range []int{0, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, addr := startV2Server(t, workers)
			cl := dialT(t, addr)
			if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
				t.Fatal(err)
			}
			// Huge tau: every append is decided at once and stays a pending
			// look-ahead candidate.
			s, err := cl.Subscribe(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 1, Tau: 1 << 40, Weights: []float64{1, 1}}})
			if err != nil {
				t.Fatal(err)
			}
			// Another connection appends, so the subscriber's events are
			// still queued at its writer when Close lands.
			rows := make([]IngestRow, 8)
			for i := range rows {
				rows[i] = IngestRow{Time: int64(i + 1), Attrs: []float64{float64(i), 1}}
			}
			if _, err := dialT(t, addr).Append("stream", rows); err != nil {
				t.Fatal(err)
			}
			srv.Close()
			var decisions, confirms int
			deadline := time.After(5 * time.Second)
			for done := false; !done; {
				select {
				case ev, ok := <-s.Events():
					if !ok {
						done = true
						break
					}
					if ev.Decision != nil {
						decisions++
					}
					confirms += len(ev.Confirms)
				case <-deadline:
					t.Fatal("subscription stream did not close after server shutdown")
				}
			}
			if decisions != len(rows) {
				t.Fatalf("drained %d decisions at shutdown, want %d", decisions, len(rows))
			}
			if confirms != 0 {
				t.Fatalf("shutdown flushed %d confirmations; Close detaches, it does not drop", confirms)
			}
		})
	}
}

// refMonitor mirrors the server's per-subscription monitor in wire types.
type refMonitor struct{ m *monitor.Monitor }

func newRefMonitor(tb testing.TB, k int, tau int64, s score.Scorer) *refMonitor {
	tb.Helper()
	m, err := monitor.New(k, tau, s, monitor.Options{TrackAhead: true})
	if err != nil {
		tb.Fatal(err)
	}
	return &refMonitor{m: m}
}

func toWireConfirms(confs []monitor.Confirmation) []LiveConfirmation {
	var out []LiveConfirmation
	for _, c := range confs {
		out = append(out, LiveConfirmation{
			ID: c.ID, Time: c.Time, Durable: c.Durable, Beaten: c.Beaten, Truncated: c.Truncated,
		})
	}
	return out
}

func (r *refMonitor) observe(tb testing.TB, t int64, attrs []float64) (LiveDecision, []LiveConfirmation) {
	tb.Helper()
	dec, confs, err := r.m.Observe(t, attrs)
	if err != nil {
		tb.Fatal(err)
	}
	return LiveDecision{ID: dec.ID, Time: dec.Time, Durable: dec.Durable, Rank: dec.Rank}, toWireConfirms(confs)
}

func (r *refMonitor) finish() []LiveConfirmation { return toWireConfirms(r.m.Finish()) }

// TestStandingQueryStress is the correctness bar for the subscription
// machinery: ≥64 concurrent subscriptions over a sealing live+sharded
// dataset with concurrent queriers and churn, then every pushed verdict is
// re-derived by running the equivalent durable query over the exact append
// prefix the event named — across all five strategies — and must agree.
func TestStandingQueryStress(t *testing.T) {
	rows, conns, subsPerConn := 240, 4, 17
	if testing.Short() {
		rows = 120
	}
	srv := NewServer(func(string, ...interface{}) {})
	srv.SetScheduler(serve.NewScheduler(4))
	srv.SetCache(serve.NewCache(256))
	addLiveSharded(t, srv, "stream", 2, nil, core.LiveShardOptions{SealRows: 48})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	// Subscription spec pool: shared weights exercise canonical-key scoring
	// groups; anchors cover decision-only, confirm-only and both.
	weightPool := [][]float64{{1, 0.5}, {0.2, 2}, {3, 1}}
	anchorPool := []string{"", "look-back", "look-ahead"}
	type specID struct {
		k      int
		tau    int64
		wIdx   int
		anchor string
	}
	specs := make([]specID, 0, conns*subsPerConn)
	for i := 0; i < conns*subsPerConn; i++ {
		specs = append(specs, specID{
			k:      1 + i%3,
			tau:    int64(4 + (i/3)%4*5),
			wIdx:   i % len(weightPool),
			anchor: anchorPool[i%len(anchorPool)],
		})
	}

	// Every subscription is drained while the stream runs, by a collector that
	// also notes the newest prefix a decision arrived for; the appender paces
	// itself on that (below).
	type subHandle struct {
		spec    specID
		s       *Subscription
		cl      *Client
		events  []Event       // owned by the collector until done closes
		done    chan struct{} // closed when the event stream ended
		decided int           // newest prefix a decision arrived for; guarded by paceMu
	}
	var (
		handles  []*subHandle
		paceMu   sync.Mutex
		paceCond = sync.NewCond(&paceMu)
		stalled  bool // set by the pacing watchdog; guarded by paceMu
	)
	collect := func(h *subHandle) {
		defer close(h.done)
		for ev := range h.s.Events() {
			h.events = append(h.events, ev)
			if ev.Decision != nil {
				paceMu.Lock()
				h.decided = ev.Prefix
				paceMu.Unlock()
				paceCond.Broadcast()
			}
		}
	}
	clients := make([]*Client, conns)
	for ci := 0; ci < conns; ci++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
			t.Fatal(err)
		}
		clients[ci] = cl
		for si := 0; si < subsPerConn; si++ {
			spec := specs[ci*subsPerConn+si]
			s, err := cl.Subscribe(Request{Dataset: "stream", QuerySpec: QuerySpec{
				K: spec.k, Tau: spec.tau, Anchor: spec.anchor, Weights: weightPool[spec.wIdx],
			}})
			if err != nil {
				t.Fatal(err)
			}
			h := &subHandle{spec: spec, s: s, cl: cl, done: make(chan struct{})}
			handles = append(handles, h)
			go collect(h)
		}
	}
	if len(handles) < 64 {
		t.Fatalf("only %d subscriptions; the bar is 64", len(handles))
	}

	// Mirror of the exact committed stream, by prefix.
	var (
		mirrorTimes []int64
		mirrorAttrs [][]float64
		lastTime    atomic.Int64
	)
	rng := rand.New(rand.NewSource(99))
	appender := dialT(t, addr)

	// Concurrent read load while appends and events flow.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
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
				if lastTime.Load() == 0 {
					continue
				}
				req := Request{Dataset: "stream", QuerySpec: QuerySpec{
					K: 1 + qrng.Intn(3), Tau: int64(5 + qrng.Intn(15)),
					Weights: weightPool[qrng.Intn(len(weightPool))],
				}}
				if _, _, err := cl.Query(req); err != nil {
					t.Errorf("concurrent query: %v", err)
					return
				}
			}
		}(int64(500 + g))
	}

	// Churn: one connection subscribes and unsubscribes mid-stream, so
	// registry attach/detach races the append path.
	churn := dialT(t, addr)
	if _, _, err := churn.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	var churnEvents atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s, err := churn.Subscribe(Request{Dataset: "stream",
				QuerySpec: QuerySpec{K: 2, Tau: 8, Weights: []float64{1, 1}}})
			if err != nil {
				t.Errorf("churn subscribe: %v", err)
				return
			}
			if churnEvents.Load() == 0 {
				// Hold a subscription until the first event any of them sees,
				// so the coverage check below does not hang on an append
				// landing inside a 1 ms window; from then on, churn.
				select {
				case _, ok := <-s.Events():
					if ok {
						churnEvents.Add(1)
					}
				case <-stop:
				}
			} else {
				time.Sleep(time.Millisecond)
			}
			if err := churn.Unsubscribe(s); err != nil {
				t.Errorf("churn unsubscribe: %v", err)
				return
			}
			for range s.Events() {
				churnEvents.Add(1)
			}
		}
	}()

	const batch = 40
	for appended := 0; appended < rows; {
		n := batch
		if appended+n > rows {
			n = rows - appended
		}
		ingest := make([]IngestRow, n)
		for i := range ingest {
			tm := lastTime.Load() + int64(1+rng.Intn(3))
			at := []float64{rng.Float64() * 50, rng.Float64() * 10}
			ingest[i] = IngestRow{Time: tm, Attrs: at}
			mirrorTimes = append(mirrorTimes, tm)
			mirrorAttrs = append(mirrorAttrs, at)
			lastTime.Store(tm)
		}
		resp, err := appender.Append("stream", ingest)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if resp.Appended != n {
			t.Fatalf("append committed %d/%d", resp.Appended, n)
		}
		appended += n
		// Pace on delivery, as a real producer behind a bounded queue must: a
		// batch queues up to subsPerConn*batch = 680 event frames per follower
		// connection, and the server — correctly — evicts a connection that
		// falls eventQueueDepth (1024) frames behind. Unpaced, the second
		// batch overflowed it on 2-3 of the 4 connections. Every subscription
		// except the confirm-only ones gets one decision per append; once each
		// has the decision for this batch's last row, at most that one row's
		// frames are still queued anywhere.
		watchdog := time.AfterFunc(30*time.Second, func() {
			paceMu.Lock()
			stalled = true
			paceMu.Unlock()
			paceCond.Broadcast()
		})
		paceMu.Lock()
		for _, h := range handles {
			for h.spec.anchor != "look-ahead" && h.decided < appended && !stalled {
				paceCond.Wait()
			}
		}
		timedOut := stalled
		paceMu.Unlock()
		watchdog.Stop()
		if timedOut {
			t.Fatalf("decisions for prefix %d did not reach every subscription within 30s", appended)
		}
	}
	close(stop)
	wg.Wait()

	// Tear the standing queries down and collect every event.
	type subRecord struct {
		spec   specID
		events []Event
	}
	var records []subRecord
	for _, h := range handles {
		if err := h.cl.Unsubscribe(h.s); err != nil {
			t.Fatal(err)
		}
		<-h.done
		if d := h.s.Dropped(); d != 0 {
			t.Fatalf("subscription dropped %d events client-side", d)
		}
		records = append(records, subRecord{spec: h.spec, events: h.events})
	}

	// Re-derive every pushed verdict from batch engines over the exact
	// prefixes the events named, across all five strategies. Identical
	// (spec, prefix, record) checks dedupe — subscriptions share specs.
	engines := make(map[int]*core.Engine)
	engineAt := func(prefix int) *core.Engine {
		if e, ok := engines[prefix]; ok {
			return e
		}
		ds, err := data.New(mirrorTimes[:prefix:prefix], mirrorAttrs[:prefix:prefix])
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(ds, core.Options{})
		engines[prefix] = e
		return e
	}
	strategies := []core.Algorithm{core.TBase, core.THop, core.SBase, core.SBand, core.SHop}
	type checkKey struct {
		spec    specID
		prefix  int
		id      int
		ahead   bool
		durable bool
	}
	checked := make(map[checkKey]bool)
	verify := func(spec specID, prefix, id int, tm int64, durable, ahead bool) {
		t.Helper()
		key := checkKey{spec: spec, prefix: prefix, id: id, ahead: ahead, durable: durable}
		if checked[key] {
			return
		}
		checked[key] = true
		if id >= prefix {
			t.Fatalf("verdict names record %d beyond its prefix %d", id, prefix)
		}
		if mirrorTimes[id] != tm {
			t.Fatalf("record %d: event time %d, stream committed %d", id, tm, mirrorTimes[id])
		}
		anchor := core.LookBack
		if ahead {
			anchor = core.LookAhead
		}
		eng := engineAt(prefix)
		for _, alg := range strategies {
			res, err := eng.DurableTopK(core.Query{
				K: spec.k, Tau: spec.tau, Start: tm, End: tm,
				Scorer: score.MustLinear(weightPool[spec.wIdx]...), Anchor: anchor, Algorithm: alg,
			})
			if err != nil {
				t.Fatalf("reference query (%v): %v", alg, err)
			}
			found := false
			for _, r := range res.Records {
				if r.ID == id {
					found = true
				}
			}
			if found != durable {
				t.Fatalf("spec %+v prefix %d record %d (ahead=%v): pushed durable=%v, %v re-derives %v",
					spec, prefix, id, ahead, durable, alg, found)
			}
		}
	}

	totalDecisions, totalConfirms := 0, 0
	for _, rec := range records {
		lastPrefix := 0
		for _, ev := range rec.events {
			if ev.Prefix < lastPrefix {
				t.Fatalf("prefix went backwards: %d after %d", ev.Prefix, lastPrefix)
			}
			lastPrefix = ev.Prefix
			if d := ev.Decision; d != nil {
				totalDecisions++
				if ev.Prefix < 1 || ev.Prefix > len(mirrorTimes) {
					t.Fatalf("decision at impossible prefix %d", ev.Prefix)
				}
				// The decision describes exactly the append that produced
				// this prefix — the bit-exactness of Event.Prefix.
				if d.ID != ev.Prefix-1 || d.Time != mirrorTimes[ev.Prefix-1] {
					t.Fatalf("decision %+v does not describe prefix %d's append (time %d)",
						d, ev.Prefix, mirrorTimes[ev.Prefix-1])
				}
				verify(rec.spec, ev.Prefix, d.ID, d.Time, d.Durable, false)
			}
			for _, c := range ev.Confirms {
				totalConfirms++
				if c.Truncated {
					// Window cut short by teardown: the full-prefix query is
					// not equivalent. Internal consistency still holds.
					if c.Durable != (c.Beaten < rec.spec.k) {
						t.Fatalf("truncated confirmation inconsistent: %+v (k=%d)", c, rec.spec.k)
					}
					continue
				}
				verify(rec.spec, ev.Prefix, c.ID, c.Time, c.Durable, true)
			}
		}
	}
	if totalDecisions == 0 || totalConfirms == 0 {
		t.Fatalf("stress run pushed %d decisions / %d confirmations; expected both streams to flow",
			totalDecisions, totalConfirms)
	}
	if churnEvents.Load() == 0 {
		t.Error("churn subscriptions never received an event")
	}
	t.Logf("verified %d unique verdicts (%d decisions, %d confirmations) across %d subscriptions and %d strategies",
		len(checked), totalDecisions, totalConfirms, len(records), len(strategies))
}

// TestSubscriptionsGate: SetSubscriptions(false) withholds the events
// feature at hello — protocol v2 still negotiates, but subscribe requests
// fail — and re-enabling restores serving for later hellos (the durserved
// -subscriptions opt-in).
func TestSubscriptionsGate(t *testing.T) {
	srv, addr := startV2Server(t, 0)
	srv.SetSubscriptions(false)

	sub := Request{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 5, Weights: []float64{1, 1}}}
	cl := dialT(t, addr)
	v, feats, err := cl.Hello(FeatureEvents, FeatureBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if v != Version2 {
		t.Fatalf("negotiated %d, want %d (the gate denies the feature, not the protocol)", v, Version2)
	}
	if len(feats) != 0 {
		t.Fatalf("accepted features %v, want none while subscriptions are off", feats)
	}
	if _, err := cl.Subscribe(sub); err == nil {
		t.Fatal("subscribe accepted while subscriptions are disabled")
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("rejected subscribe killed the session: %v", err)
	}

	srv.SetSubscriptions(true)
	cl2 := dialT(t, addr)
	if _, feats, err := cl2.Hello(FeatureEvents, FeatureBackfill); err != nil || len(feats) != 2 {
		t.Fatalf("hello after re-enable: features %v, err %v", feats, err)
	}
	s, err := cl2.Subscribe(sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Unsubscribe(s); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerReconnects kills the server under a follower and restarts it
// on the same address: the follower re-dials, re-subscribes, and resumes
// the stream, with the seam visible as the prefix restarting on the fresh
// dataset.
func TestFollowerReconnects(t *testing.T) {
	startAt := func(listen string) (*Server, string) {
		t.Helper()
		srv := NewServer(func(string, ...interface{}) {})
		addLive(t, srv, "stream", 2, nil)
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		return srv, ln.Addr().String()
	}
	srvA, addr := startAt("127.0.0.1:0")

	f, err := Follow(addr, Request{Dataset: "stream", QuerySpec: QuerySpec{
		K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1},
	}}, RetryPolicy{MaxAttempts: 100, BaseDelay: 2 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	recv := func(n int) []Event {
		t.Helper()
		evs := make([]Event, 0, n)
		for len(evs) < n {
			select {
			case ev, ok := <-f.Events():
				if !ok {
					t.Fatalf("event stream closed after %d/%d events: %v", len(evs), n, f.Err())
				}
				evs = append(evs, ev)
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out after %d/%d events", len(evs), n)
			}
		}
		return evs
	}

	for i := 1; i <= 3; i++ {
		if err := srvA.AppendRow("stream", int64(i), []float64{float64(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	evs := recv(3)
	if evs[2].Prefix != 3 || evs[2].Decision == nil {
		t.Fatalf("pre-restart event %+v, want decision at prefix 3", evs[2])
	}

	srvA.Close()
	srvB, _ := startAt(addr)
	defer srvB.Close()
	// Reconnects increments only after the new subscription is registered,
	// so once it reads 1 the appends below are guaranteed to be observed.
	deadline := time.Now().Add(10 * time.Second)
	for f.Reconnects() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reconnected: %v", f.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for i := 1; i <= 2; i++ {
		if err := srvB.AppendRow("stream", int64(100+i), []float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	evs = recv(2)
	// The fresh server's dataset starts empty and its in-memory registry
	// does not know the follower's durable key, so the resume is rejected
	// and the follower falls back to a fresh subscription: the prefix
	// restarts at 1 — exactly the seam Follower documents — and the fallback
	// is counted in Resets.
	if evs[0].Prefix != 1 || evs[1].Prefix != 2 {
		t.Fatalf("post-restart prefixes %d,%d, want 1,2", evs[0].Prefix, evs[1].Prefix)
	}
	if got := f.Reconnects(); got != 1 {
		t.Fatalf("%d reconnects, want 1", got)
	}
	if got := f.Resets(); got != 1 {
		t.Fatalf("%d resets, want 1 (restart discarded the in-memory registry)", got)
	}
}
