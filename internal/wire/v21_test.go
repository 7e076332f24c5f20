package wire

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"
)

// TestBackfillNegotiation pins the feature matrix: events and backfill are
// granted together or not at all, withheld entirely when subscriptions are
// off, and a session without them gets clean rejections (not dead
// connections) for every subscription operation.
func TestBackfillNegotiation(t *testing.T) {
	srv, addr := startV2Server(t, 0)

	// events + backfill → both granted, in that order.
	full := dialT(t, addr)
	v, feats, err := full.Hello(FeatureEvents, FeatureBackfill)
	if err != nil {
		t.Fatal(err)
	}
	if v != Version2 || !reflect.DeepEqual(feats, []string{FeatureEvents, FeatureBackfill}) {
		t.Fatalf("negotiated v%d features %v, want v%d [%s %s]", v, feats, Version2, FeatureEvents, FeatureBackfill)
	}
	spec := QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1}}
	// fromPrefix names where a resume starts; without a key it is an error,
	// not a fresh subscription.
	if _, err := full.Subscribe(Request{Dataset: "stream", QuerySpec: spec, FromPrefix: 3}); err == nil {
		t.Fatal("fromPrefix subscribe without subKey accepted")
	}

	// Either feature alone → neither.
	for _, f := range []string{FeatureBackfill, FeatureEvents} {
		alone := dialT(t, addr)
		if _, feats, err = alone.Hello(f); err != nil {
			t.Fatal(err)
		}
		if len(feats) != 0 {
			t.Fatalf("%s alone accepted features %v, want none", f, feats)
		}
		if _, err := alone.Subscribe(Request{Dataset: "stream", QuerySpec: spec}); err == nil {
			t.Fatalf("subscribe accepted after a hello offering only %s", f)
		}
		if _, err := alone.Subscribe(Request{Dataset: "stream", QuerySpec: spec, SubKey: 7}); err == nil {
			t.Fatalf("resume subscribe accepted after a hello offering only %s", f)
		}
		if _, err := alone.do(Request{Op: OpUnsubscribe, Dataset: "stream", SubKey: 7}); err == nil {
			t.Fatalf("keyed unsubscribe accepted after a hello offering only %s", f)
		}
		if err := alone.Ping(); err != nil {
			t.Fatalf("session broken after rejected subscription ops: %v", err)
		}
	}

	// The subscriptions gate withholds backfill along with events.
	srv.SetSubscriptions(false)
	gated := dialT(t, addr)
	if _, feats, err = gated.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	if len(feats) != 0 {
		t.Fatalf("gated hello accepted features %v, want none", feats)
	}
	srv.SetSubscriptions(true)
}

// TestDurableSubscriptionResume exercises the tentpole splice on an
// in-memory registry: a backfill subscription survives its connection dying
// mid-stream, a second connection resumes it by key from the last received
// event, the server replays the gap, and the merged stream is gap-free and
// duplicate-free — provably, via the contiguous sequence numbers.
func TestDurableSubscriptionResume(t *testing.T) {
	srv, addr := startV2Server(t, 0)

	c1 := dialT(t, addr)
	if _, _, err := c1.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 0.5}}
	s1, err := c1.Subscribe(Request{Dataset: "stream", QuerySpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	key := s1.SubKey()
	if key == 0 {
		t.Fatal("backfill subscription got no durable key")
	}
	if s1.Base() != 0 {
		t.Fatalf("base %d on an empty dataset, want 0", s1.Base())
	}

	var times []int64
	appendRows := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			tm := int64(len(times) + 1)
			times = append(times, tm)
			if err := srv.AppendRow("stream", tm, []float64{float64(len(times)), 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recv := func(ch <-chan Event, n int) []Event {
		t.Helper()
		evs := make([]Event, 0, n)
		for len(evs) < n {
			select {
			case ev, ok := <-ch:
				if !ok {
					t.Fatalf("stream closed after %d/%d events", len(evs), n)
				}
				evs = append(evs, ev)
			case <-time.After(10 * time.Second):
				t.Fatalf("timed out after %d/%d events", len(evs), n)
			}
		}
		return evs
	}

	appendRows(5)
	first := recv(s1.Events(), 5)
	for i, ev := range first {
		if ev.Seq != uint64(i+1) || ev.Prefix != i+1 {
			t.Fatalf("event %d: seq %d prefix %d, want %d/%d", i, ev.Seq, ev.Prefix, i+1, i+1)
		}
	}
	lastPrefix, lastSeq := first[4].Prefix, first[4].Seq

	// The connection dies without unsubscribing; the registration survives,
	// detached, while more rows commit unobserved by any consumer.
	c1.Close()
	appendRows(5)

	// Resume by key from the last received event: the server replays the gap
	// (seqs 6..10) before splicing into the live stream (11..15).
	c2 := dialT(t, addr)
	if _, _, err := c2.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s2, err := c2.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: lastPrefix})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if s2.SubKey() != key {
		t.Fatalf("resume echoed key %d, want %d", s2.SubKey(), key)
	}
	appendRows(5)
	rest := recv(s2.Events(), 10)
	for i, ev := range rest {
		wantSeq := lastSeq + uint64(i+1)
		wantPrefix := lastPrefix + i + 1
		if ev.Seq != wantSeq || ev.Prefix != wantPrefix {
			t.Fatalf("resumed event %d: seq %d prefix %d, want %d/%d", i, ev.Seq, ev.Prefix, wantSeq, wantPrefix)
		}
		if ev.Decision == nil || ev.Decision.ID != ev.Prefix-1 || ev.Decision.Time != times[ev.Prefix-1] {
			t.Fatalf("resumed event %d decision %+v does not describe prefix %d (time %d)",
				i, ev.Decision, ev.Prefix, times[ev.Prefix-1])
		}
	}

	// A conservative resume point (fromPrefix below what was delivered) only
	// produces duplicates the sequence numbers expose; a third connection
	// resuming from prefix 12 must see seqs 13, 14, 15 again — the overlap a
	// real consumer (Follower) drops by seq.
	c2.Close()
	c3 := dialT(t, addr)
	if _, _, err := c3.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s3, err := c3.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: 12})
	if err != nil {
		t.Fatalf("conservative resume: %v", err)
	}
	replayed := recv(s3.Events(), 3)
	for i, ev := range replayed {
		if ev.Seq != uint64(13+i) || ev.Prefix != 13+i {
			t.Fatalf("replayed event %d: seq %d prefix %d, want %d/%d", i, ev.Seq, ev.Prefix, 13+i, 13+i)
		}
	}

	// A resume on the connection that already holds the key (a client that
	// cut its own stream) replaces the old conn-local id, which can then no
	// longer drop the registration out from under the new one.
	s3b, err := c3.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: 15})
	if err != nil {
		t.Fatalf("resume on the same connection: %v", err)
	}
	if _, err := c3.do(Request{Op: OpUnsubscribe, SubID: s3.ID()}); err == nil {
		t.Fatal("the replaced conn-local id still unsubscribed")
	}
	appendRows(1)
	if ev := recv(s3b.Events(), 1)[0]; ev.Seq != 16 || ev.Prefix != 16 {
		t.Fatalf("same-connection resume: seq %d prefix %d, want 16/16", ev.Seq, ev.Prefix)
	}

	// Keyed unsubscribe really drops the registration: a further resume fails.
	if _, err := c3.do(Request{Op: OpUnsubscribe, Dataset: "stream", SubKey: key}); err != nil {
		t.Fatalf("keyed unsubscribe: %v", err)
	}
	c4 := dialT(t, addr)
	if _, _, err := c4.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	if _, err := c4.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: 0}); err == nil {
		t.Fatal("resume succeeded after keyed unsubscribe")
	}
}

// rawV2Conn drives the protocol frame by frame over a raw connection — the
// shape of a client we deliberately let fall behind.
type rawV2Conn struct {
	t    *testing.T
	conn net.Conn
}

func (r *rawV2Conn) send(req Request) {
	r.t.Helper()
	if err := WriteFrame(r.conn, &req); err != nil {
		r.t.Fatalf("raw send: %v", err)
	}
}

// next reads one frame, returning exactly one of (event, response).
func (r *rawV2Conn) next() (*Event, *Response, error) {
	payload, err := ReadRawFrame(r.conn)
	if err != nil {
		return nil, nil, err
	}
	var probe struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal(payload, &probe); err != nil {
		return nil, nil, err
	}
	if probe.Event != "" {
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return nil, nil, err
		}
		return &ev, nil, nil
	}
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, nil, err
	}
	return nil, &resp, nil
}

func (r *rawV2Conn) expectResponse() *Response {
	r.t.Helper()
	for {
		ev, resp, err := r.next()
		if err != nil {
			r.t.Fatalf("raw read: %v", err)
		}
		if ev != nil {
			continue
		}
		if !resp.OK {
			r.t.Fatalf("error response: %s", resp.Error)
		}
		return resp
	}
}

// TestSlowSubscriberEvicted pins the overflow contract: a subscriber that
// stops draining sees a strictly contiguous run of events, then one terminal
// evicted frame naming exactly the last delivered sequence number, then EOF
// — never a silent gap — and the durable registration survives to be resumed
// past the eviction point.
func TestSlowSubscriberEvicted(t *testing.T) {
	srv, addr := startV2Server(t, 0)

	p1, p2 := net.Pipe()
	go srv.ServeConn(p1)
	rc := &rawV2Conn{t: t, conn: p2}
	rc.send(Request{V: Version2, Op: OpHello, Features: []string{FeatureEvents, FeatureBackfill}})
	hello := rc.expectResponse()
	if !reflect.DeepEqual(hello.Features, []string{FeatureEvents, FeatureBackfill}) {
		t.Fatalf("hello features %v", hello.Features)
	}
	rc.send(Request{V: Version2, Op: OpSubscribe, Dataset: "stream",
		QuerySpec: QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1}}})
	ack := rc.expectResponse()
	if ack.SubKey == 0 {
		t.Fatal("no durable key on backfill subscribe")
	}

	// Flood far past the queue depth while reading nothing: the pipe is
	// unbuffered, so the writer wedges on the first unread frame and the
	// queue fills behind it. Appends must never block or fail — eviction is
	// the slow consumer's problem, not the stream's.
	total := eventQueueDepth + 200
	for i := 1; i <= total; i++ {
		if err := srv.AppendRow("stream", int64(i), []float64{float64(i), 0}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	// Resume reading: contiguous events, then the evicted frame, then EOF.
	var lastSeq uint64
	var lastPrefix int
	sawEvicted := false
	for {
		ev, resp, err := rc.next()
		if err != nil {
			if !sawEvicted {
				t.Fatalf("stream ended (%v) without an evicted frame after seq %d", err, lastSeq)
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("stream ended with %v, want a close", err)
			}
			break
		}
		if resp != nil {
			t.Fatalf("unexpected response frame %+v mid-stream", resp)
		}
		if sawEvicted {
			t.Fatalf("frame %+v after the terminal evicted frame", ev)
		}
		if ev.Event == EventEvicted {
			sawEvicted = true
			if ev.SubID != ack.SubID {
				t.Fatalf("evicted frame for sub %d, want %d", ev.SubID, ack.SubID)
			}
			if ev.Seq != lastSeq || ev.Prefix != lastPrefix {
				t.Fatalf("evicted frame reports seq %d prefix %d; last delivered was %d/%d",
					ev.Seq, ev.Prefix, lastSeq, lastPrefix)
			}
			continue
		}
		if ev.Seq != lastSeq+1 {
			t.Fatalf("gap: seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq, lastPrefix = ev.Seq, ev.Prefix
	}
	if lastSeq == 0 || lastSeq >= uint64(total) {
		t.Fatalf("delivered %d events before eviction; expected some but not all %d", lastSeq, total)
	}
	p2.Close()

	// The eviction detached, not dropped, the registration: resume from the
	// evicted frame's prefix and the stream continues exactly where it
	// stopped, gap replayed.
	cl := dialT(t, addr)
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := cl.Subscribe(Request{Dataset: "stream", SubKey: ack.SubKey, FromPrefix: lastPrefix})
	if err != nil {
		t.Fatalf("resume after eviction: %v", err)
	}
	want := lastSeq + 1
	deadline := time.After(20 * time.Second)
	for want <= uint64(total) {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				t.Fatalf("resumed stream closed at seq %d", want-1)
			}
			if ev.Seq != want {
				t.Fatalf("resumed stream: seq %d, want %d", ev.Seq, want)
			}
			want++
		case <-deadline:
			t.Fatalf("timed out waiting for seq %d", want)
		}
	}
}

// TestFollowerResumesGapFree runs the Follower against a server whose
// connections keep dying (a proxy we cut), asserting the merged stream never
// gaps and never duplicates: every prefix 1..N appears exactly once even
// though rows were appended while the follower was disconnected.
func TestFollowerResumesGapFree(t *testing.T) {
	srv, addr := startV2Server(t, 0)

	// A minimal cut-able proxy: forwards bytes until told to sever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type pair struct{ a, b net.Conn }
	conns := make(chan pair, 16)
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", addr)
			if err != nil {
				c.Close()
				return
			}
			go io.Copy(up, c)
			go io.Copy(c, up)
			conns <- pair{c, up}
		}
	}()
	cutAll := func() {
		for {
			select {
			case p := <-conns:
				p.a.Close()
				p.b.Close()
			default:
				return
			}
		}
	}

	f, err := Follow(ln.Addr().String(), Request{Dataset: "stream", QuerySpec: QuerySpec{
		K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1},
	}}, RetryPolicy{MaxAttempts: 200, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const rounds, perRound = 4, 25
	next := 1
	seen := 0
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			if err := srv.AppendRow("stream", int64(next), []float64{float64(next), 0}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if r < rounds-1 {
			// Sever every live connection mid-stream; more rows land while
			// the follower is reconnecting.
			cutAll()
		}
		// Drain what has arrived so far without requiring synchronization
		// with the reconnect; the final tally below is the real assertion.
		drain := time.After(50 * time.Millisecond)
	drainLoop:
		for {
			select {
			case ev, ok := <-f.Events():
				if !ok {
					t.Fatalf("stream closed: %v", f.Err())
				}
				if ev.Prefix != seen+1 {
					t.Fatalf("merged stream: prefix %d after %d (gap or duplicate)", ev.Prefix, seen)
				}
				seen = ev.Prefix
			case <-drain:
				break drainLoop
			}
		}
	}
	total := next - 1
	deadline := time.After(20 * time.Second)
	for seen < total {
		select {
		case ev, ok := <-f.Events():
			if !ok {
				t.Fatalf("stream closed at prefix %d: %v", seen, f.Err())
			}
			if ev.Prefix != seen+1 {
				t.Fatalf("merged stream: prefix %d after %d (gap or duplicate)", ev.Prefix, seen)
			}
			seen = ev.Prefix
		case <-deadline:
			t.Fatalf("timed out at prefix %d/%d (reconnects %d, resets %d)",
				seen, total, f.Reconnects(), f.Resets())
		}
	}
	if f.Resets() != 0 {
		t.Fatalf("%d resets on an in-process server whose registry never restarted", f.Resets())
	}
	if f.Reconnects() == 0 {
		t.Fatal("the proxy cuts never forced a reconnect")
	}
	t.Logf("gap-free through %d prefixes across %d reconnects", total, f.Reconnects())
}

// TestEvictConnUnit drives the eviction writer directly: queued events drain
// in order, every live subscription gets its terminal frame (ordered by id),
// and the connection closes.
func TestEvictConnUnit(t *testing.T) {
	st := newConnState()
	first, second := &connSub{}, &connSub{seq: 7, prefix: 9}
	st.subs[1] = first
	st.subs[2] = second
	for i := 1; i <= 3; i++ {
		first.seq, first.prefix = uint64(i), i
		st.events <- &Event{V: Version2, Event: EventSub, SubID: 1, Seq: uint64(i), Prefix: i}
	}
	st.dead.Store(true)

	p1, p2 := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		evictConn(p1, st)
	}()
	var frames []Event
	for {
		var ev Event
		if err := ReadFrame(p2, &ev); err != nil {
			break
		}
		frames = append(frames, ev)
	}
	<-done
	if len(frames) != 5 {
		t.Fatalf("got %d frames, want 3 events + 2 evicted", len(frames))
	}
	for i := 0; i < 3; i++ {
		if frames[i].Event != EventSub || frames[i].Seq != uint64(i+1) {
			t.Fatalf("frame %d: %+v, want queued event seq %d", i, frames[i], i+1)
		}
	}
	want := []Event{
		{V: Version2, Event: EventEvicted, SubID: 1, Seq: 3, Prefix: 3},
		{V: Version2, Event: EventEvicted, SubID: 2, Seq: 7, Prefix: 9},
	}
	for i, w := range want {
		got := frames[3+i]
		if got.Event != w.Event || got.SubID != w.SubID || got.Seq != w.Seq || got.Prefix != w.Prefix {
			t.Fatalf("evicted frame %d: %+v, want %+v", i, got, w)
		}
	}
}

// TestSubscriptionPositionLeavesWithIt: the last-event position a connection
// keeps per subscription (what its evicted frames report) leaves with the
// subscription. Thousands of subscribe/append/unsubscribe cycles on one
// connection, each unsubscribe flushing a final event, leave no entry behind,
// and a resume replaces the conn-local id it supersedes instead of keeping
// both.
func TestSubscriptionPositionLeavesWithIt(t *testing.T) {
	cycles := 5000
	if testing.Short() {
		cycles = 1000
	}
	srv := NewServer(func(string, ...interface{}) {})
	addLive(t, srv, "stream", 1, nil)
	serverSide, clientSide := net.Pipe()
	st := newConnState()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.serveConnPipelined(serverSide, nil, st)
	}()
	cl := NewClient(clientSide)
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	positions := func() int {
		st.mu.Lock()
		defer st.mu.Unlock()
		return len(st.subs)
	}
	spec := Request{Dataset: "stream", QuerySpec: QuerySpec{K: 1, Tau: 3, Weights: []float64{1}}}
	for i := 1; i <= cycles; i++ {
		s, err := cl.Subscribe(spec)
		if err != nil {
			t.Fatalf("cycle %d: subscribe: %v", i, err)
		}
		if _, err := cl.Append("stream", []IngestRow{{Time: int64(i), Attrs: []float64{float64(i % 7)}}}); err != nil {
			t.Fatalf("cycle %d: append: %v", i, err)
		}
		if err := cl.Unsubscribe(s); err != nil {
			t.Fatalf("cycle %d: unsubscribe: %v", i, err)
		}
	}
	if n := positions(); n != 0 {
		t.Fatalf("%d subscription positions left after %d unsubscribed cycles", n, cycles)
	}

	s, err := cl.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Append("stream", []IngestRow{{Time: int64(cycles + 1), Attrs: []float64{1}}}); err != nil {
		t.Fatal(err)
	}
	resumed, err := cl.Subscribe(Request{Dataset: "stream", SubKey: s.SubKey(), FromPrefix: s.Base()})
	if err != nil {
		t.Fatal(err)
	}
	// The ack leaves ahead of the replayed backlog; a ping is read only once
	// the resume's handler has finished.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if n := positions(); n != 1 {
		t.Fatalf("%d subscription positions after a resume on the same connection, want 1", n)
	}
	st.mu.Lock()
	cs := st.subs[resumed.ID()]
	st.mu.Unlock()
	if cs == nil || cs.seq != 1 || cs.prefix != cycles+1 {
		t.Fatalf("resumed subscription's position: %+v, want seq 1 at prefix %d", cs, cycles+1)
	}
	if err := cl.Unsubscribe(resumed); err != nil {
		t.Fatal(err)
	}
	if n := positions(); n != 0 {
		t.Fatalf("%d subscription positions left after the last unsubscribe", n)
	}
	cl.Close()
	<-served
}

// TestSlowFollowerNeverSkips: a Follower whose consumer reads slower than the
// appender writes overflows its buffers again and again — the client cuts
// the stream, or the server evicts the connection — and every time resumes
// by key, so the merged stream stays seq- and prefix-contiguous throughout.
func TestSlowFollowerNeverSkips(t *testing.T) {
	const rows = 3 * subEventBuffer
	srv, addr := startV2Server(t, 0)
	f, err := Follow(addr, Request{Dataset: "stream", QuerySpec: QuerySpec{
		K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1},
	}}, RetryPolicy{MaxAttempts: 200, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The appender runs far ahead of the consumer, in bursts small enough
	// that the server's writer keeps its queue short: the overflow happens
	// in this client's buffers, not in the server's event queue.
	appended := make(chan error, 1)
	go func() {
		for i := 1; i <= rows; i++ {
			if err := srv.AppendRow("stream", int64(i), []float64{float64(i), 0}); err != nil {
				appended <- err
				return
			}
			if i%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		appended <- nil
	}()
	var lastSeq uint64
	lastPrefix := 0
	deadline := time.After(60 * time.Second)
	for lastPrefix < rows {
		select {
		case ev, ok := <-f.Events():
			if !ok {
				t.Fatalf("stream closed at prefix %d: %v", lastPrefix, f.Err())
			}
			if ev.Seq != lastSeq+1 || ev.Prefix != lastPrefix+1 {
				t.Fatalf("merged stream skipped: seq %d prefix %d after %d/%d (reconnects %d)",
					ev.Seq, ev.Prefix, lastSeq, lastPrefix, f.Reconnects())
			}
			lastSeq, lastPrefix = ev.Seq, ev.Prefix
			if lastSeq%8 == 0 {
				time.Sleep(time.Millisecond)
			}
		case <-deadline:
			t.Fatalf("timed out at prefix %d/%d (reconnects %d)", lastPrefix, rows, f.Reconnects())
		}
	}
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if f.Reconnects() < 1 {
		t.Fatal("the consumer never fell a buffer behind; the test exercised nothing")
	}
	if f.Resets() != 0 {
		t.Fatalf("%d resets against a server whose registry never restarted", f.Resets())
	}
	t.Logf("%d events through %d reconnects (%d evictions)", rows, f.Reconnects(), f.Evictions())
}
