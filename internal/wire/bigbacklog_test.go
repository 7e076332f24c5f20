package wire

import (
	"net"
	"testing"
	"time"

	"repro/internal/wal"
)

// TestResumePaginatesHugeBacklog pins the evict/resume pagination contract
// for backlogs larger than the per-connection event queue: a durable
// subscription detaches, far more rows commit than eventQueueDepth can hold,
// and a raw client catches up by resuming, draining until the page ends — at
// the terminal evicted frame, at EOF, or where the client cut the stream
// because this consumer fell a whole buffer behind — and resuming again from
// the last prefix it holds. Every page must be gap-free and seq-contiguous,
// and the union must cover the whole stream.
func TestResumePaginatesHugeBacklog(t *testing.T) {
	const rows = 3 * eventQueueDepth
	fs := wal.NewMemFS()
	srv, st, addr := startStoreServer(t, fs, "db")
	defer srv.Close()
	defer st.Close()

	cl := dialT(t, addr)
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := cl.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: 1, Tau: 1 << 40, Anchor: "look-back", Weights: []float64{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	key := s.SubKey()
	if key == 0 {
		t.Fatal("no durable key")
	}
	cl.Close()

	for i := 1; i <= rows; i++ {
		if _, _, err := st.Append(int64(i), []float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}

	poll := time.NewTicker(time.Second)
	defer poll.Stop()
	lastPrefix, pages, cuts := 0, 0, 0
	var lastSeq uint64
	for lastPrefix < rows {
		pages++
		if pages > rows {
			t.Fatalf("no forward progress: %d resumes for %d rows", pages, rows)
		}
		rcl := dialT(t, addr)
		if _, _, err := rcl.Hello(FeatureEvents, FeatureBackfill); err != nil {
			t.Fatal(err)
		}
		rs, err := rcl.Subscribe(Request{Dataset: "stream", SubKey: key, FromPrefix: lastPrefix})
		if err != nil {
			t.Fatalf("resume at prefix %d: %v", lastPrefix, err)
		}
		got, progressed := 0, time.Now()
	drain:
		for lastPrefix < rows {
			select {
			case ev, ok := <-rs.Events():
				if !ok || ev.Event == EventEvicted {
					break drain
				}
				if ev.Prefix != lastPrefix+1 || ev.Seq != lastSeq+1 {
					t.Fatalf("gap inside page %d: prefix %d seq %d after %d/%d", pages, ev.Prefix, ev.Seq, lastPrefix, lastSeq)
				}
				lastPrefix, lastSeq = ev.Prefix, ev.Seq
				got++
				progressed = time.Now()
			case <-poll.C:
				if time.Since(progressed) > 15*time.Second {
					t.Fatalf("page %d stalled at prefix %d/%d after %d events", pages, lastPrefix, rows, got)
				}
			}
		}
		if rs.Dropped() != 0 {
			cuts++
		}
		rcl.Close()
	}
	if pages < 2 {
		t.Fatalf("backlog of %d rows fit one page; eviction pagination untested", rows)
	}
	t.Logf("caught up %d rows in %d pages (%d ended by a client cut)", rows, pages, cuts)
}

// TestSubscribeKeepsEveryParkedFrame: events that reach the client ahead of
// their subscribe response — a resume's whole backlog page, when the
// subscribing goroutine runs late — are parked by the reader and replayed by
// Subscribe before any consumer exists. However many were parked, all of them
// must come out of Events, in order, with nothing counted as dropped. The
// second script hangs up right after the response, as an evicting server
// does: whichever of Subscribe and the dying reader gets to the subscription
// table first, the replay is the same.
func TestSubscribeKeepsEveryParkedFrame(t *testing.T) {
	const parked = subEventBuffer + 83
	for _, hangUp := range []bool{false, true} {
		cconn, sconn := net.Pipe()
		cl := NewClient(cconn)
		served := make(chan struct{})
		go func() {
			defer close(served)
			var req Request
			if ReadFrame(sconn, &req) != nil {
				return
			}
			WriteFrame(sconn, &Response{V: Version2, OK: true, Features: []string{FeatureEvents, FeatureBackfill}})
			if ReadFrame(sconn, &req) != nil {
				return
			}
			for i := 1; i <= parked; i++ {
				WriteFrame(sconn, &Event{V: Version2, Event: EventSub, SubID: 7, Prefix: i})
			}
			WriteFrame(sconn, &Response{V: Version2, OK: true, SubID: 7})
			if hangUp {
				sconn.Close()
			}
		}()
		if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
			t.Fatal(err)
		}
		s, err := cl.Subscribe(Request{Dataset: "stream"})
		if err != nil {
			t.Fatal(err)
		}
		<-served
		for want := 1; want <= parked; want++ {
			select {
			case ev, ok := <-s.Events():
				if !ok || ev.Prefix != want {
					t.Fatalf("hang-up %v: event %d of %d parked: got prefix %d (open: %v)", hangUp, want, parked, ev.Prefix, ok)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("hang-up %v: only %d of %d parked events delivered", hangUp, want-1, parked)
			}
		}
		if d := s.Dropped(); d != 0 {
			t.Fatalf("hang-up %v: %d parked events dropped", hangUp, d)
		}
		cconn.Close()
		sconn.Close()
	}
}

// TestClientCutsFullStream: a consumer that stops draining gets a gap-free
// segment that ends where its buffer filled — seq 1..m, then the channel
// closes — never a stream that skips ahead. Dropped reports the cut, and the
// consumer continues by resuming the key from prefix m on the same Client.
func TestClientCutsFullStream(t *testing.T) {
	const pushed, key = subEventBuffer + 100, 9
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	cl := NewClient(cconn)
	resumed := make(chan Request, 1)
	go func() {
		var req Request
		if ReadFrame(sconn, &req) != nil {
			return
		}
		WriteFrame(sconn, &Response{V: Version2, OK: true, Features: []string{FeatureEvents, FeatureBackfill}})
		if ReadFrame(sconn, &req) != nil {
			return
		}
		WriteFrame(sconn, &Response{V: Version, OK: true, SubID: 1, SubKey: key})
		for i := 1; i <= pushed; i++ {
			if WriteFrame(sconn, &Event{V: Version2, Event: EventSub, SubID: 1, Prefix: i, Seq: uint64(i)}) != nil {
				return
			}
		}
		if ReadFrame(sconn, &req) != nil {
			return
		}
		resumed <- req
		WriteFrame(sconn, &Response{V: Version, OK: true, SubID: 2, SubKey: req.SubKey, Base: 0})
	}()
	if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
		t.Fatal(err)
	}
	s, err := cl.Subscribe(Request{Dataset: "stream",
		QuerySpec: QuerySpec{K: 1, Tau: 5, Anchor: "look-back", Weights: []float64{1, 1}}})
	if err != nil {
		t.Fatal(err)
	}
	// The consumer reads nothing until the client has had to refuse a frame.
	for deadline := time.Now().Add(10 * time.Second); s.Dropped() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames pushed at a consumer that never read; nothing was refused", pushed)
		}
	}
	m := 0
	for open := true; open; {
		select {
		case ev, ok := <-s.Events():
			if !ok {
				open = false
				break
			}
			if ev.Seq != uint64(m+1) || ev.Prefix != m+1 {
				t.Fatalf("stream skipped: seq %d prefix %d after %d", ev.Seq, ev.Prefix, m)
			}
			m++
		case <-time.After(5 * time.Second):
			t.Fatalf("stream stayed open after seq %d although the client refused a frame", m)
		}
	}
	// Frames that beat the subscribe response to the client are parked and
	// kept on top of the buffer, so the segment holds at least a buffer's worth.
	if m < subEventBuffer || m >= pushed {
		t.Fatalf("segment ended at seq %d, want at least the buffer's %d and fewer than the %d pushed", m, subEventBuffer, pushed)
	}
	r, err := cl.Subscribe(Request{Dataset: "stream", SubKey: s.SubKey(), FromPrefix: m})
	if err != nil {
		t.Fatalf("resume on the same client: %v", err)
	}
	if req := <-resumed; req.Op != OpSubscribe || req.SubKey != key || req.FromPrefix != m {
		t.Fatalf("resume request %+v, want subscribe key %d from prefix %d", req, key, m)
	}
	if r.SubKey() != key {
		t.Fatalf("resumed subscription key %d, want %d", r.SubKey(), key)
	}
}
