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
// and a raw client catches up by resuming, draining until the terminal
// evicted frame (or EOF), and resuming again from the last prefix it holds.
// Every page must be gap-free and the union must cover the whole stream.
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

	// The client's reader never waits for its consumer and counts what it had
	// to discard; a page with anything discarded on this side of the wire
	// fails as that, so a consumer-side drop never reads as a gap or a stall in
	// the server's stream.
	poll := time.NewTicker(time.Second)
	defer poll.Stop()
	lastPrefix, pages := 0, 0
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
		noneDropped := func() {
			if d := rs.Dropped(); d != 0 {
				t.Fatalf("page %d: the client dropped %d events (at prefix %d/%d after %d events)", pages, d, lastPrefix, rows, got)
			}
		}
	drain:
		for lastPrefix < rows {
			select {
			case ev, ok := <-rs.Events():
				if !ok || ev.Event == EventEvicted {
					break drain
				}
				if ev.Prefix != lastPrefix+1 {
					noneDropped()
					t.Fatalf("gap inside page %d: prefix %d after %d", pages, ev.Prefix, lastPrefix)
				}
				lastPrefix = ev.Prefix
				got++
				progressed = time.Now()
			case <-poll.C:
				noneDropped()
				if time.Since(progressed) > 15*time.Second {
					t.Fatalf("page %d stalled at prefix %d/%d after %d events", pages, lastPrefix, rows, got)
				}
			}
		}
		noneDropped()
		rcl.Close()
	}
	if pages < 2 {
		t.Fatalf("backlog of %d rows fit one page; eviction pagination untested", rows)
	}
	t.Logf("caught up %d rows in %d pages", rows, pages)
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
			WriteFrame(sconn, &Response{V: Version2, OK: true, Features: []string{FeatureEvents}})
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
		if _, _, err := cl.Hello(FeatureEvents); err != nil {
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
