package wire

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// fastRetry keeps retry tests quick while still exercising backoff.
func fastRetry() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 1 << 8,
		BaseDelay:   time.Millisecond,
		MaxDelay:    5 * time.Millisecond,
		MaxElapsed:  10 * time.Second,
	}
}

// TestConnTimeoutDisconnectsIdleClient covers the read deadline: a client
// that goes silent is cut after the configured timeout instead of pinning a
// handler goroutine forever.
func TestConnTimeoutDisconnectsIdleClient(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(t, 50, 7)
	if err := addStatic(srv, "games", ds, nil); err != nil {
		t.Fatal(err)
	}
	srv.SetConnTimeout(50 * time.Millisecond)
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
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping before idling: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // > connTimeout: the server hangs up
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := cl.Ping(); err != nil {
			break // disconnected, as configured
		}
		if !time.Now().Before(deadline) {
			t.Fatal("idle connection still alive long past the conn timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGracefulCloseWithIdleConnections is the shutdown regression test:
// Close must return promptly even while clients sit idle in a read (before
// draining was added, Close blocked on wg.Wait forever).
func TestGracefulCloseWithIdleConnections(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(t, 50, 8)
	if err := addStatic(srv, "games", ds, nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	// Park several idle connections plus one that keeps issuing queries.
	for i := 0; i < 3; i++ {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	busy, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for {
			if _, _, err := busy.Query(Request{Dataset: "games", QuerySpec: QuerySpec{K: 2, Tau: 50, Weights: []float64{1, 1}}}); err != nil {
				return // server shut down mid-stream: expected
			}
		}
	}()

	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not drain idle connections")
	}
	<-stop
}

// TestAppendRetryWaitsOutIngestLock reuses the production retry loop against
// the server-side ingest lockout: the rejection is marked transient, the
// client backs off until the feed drains, and the retry count is surfaced.
func TestAppendRetryWaitsOutIngestLock(t *testing.T) {
	srv, _, cl := startLiveServer(t)
	if err := srv.SetIngesting("stream", true); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.SetIngesting("stream", false)
	}()
	resp, err := cl.AppendRetry("stream", []IngestRow{
		{Time: 1, Attrs: []float64{1, 2}},
		{Time: 2, Attrs: []float64{3, 4}},
	}, fastRetry())
	if err != nil {
		t.Fatalf("AppendRetry through draining lock: %v", err)
	}
	if resp.Appended != 2 {
		t.Fatalf("aggregated response %+v, want 2 rows", resp)
	}
	if cl.Retries() == 0 {
		t.Fatal("lockout rejections did not count as retries")
	}
}

// TestAppendRetryDoesNotRetryValidation: non-transient failures (a bad row)
// return immediately with the committed prefix, no backoff.
func TestAppendRetryDoesNotRetryValidation(t *testing.T) {
	_, _, cl := startLiveServer(t)
	resp, err := cl.AppendRetry("stream", []IngestRow{
		{Time: 10, Attrs: []float64{1, 2}},
		{Time: 5, Attrs: []float64{3, 4}}, // time goes backwards: rejected
	}, fastRetry())
	if err == nil {
		t.Fatal("out-of-order row accepted")
	}
	if IsTransient(err) {
		t.Fatalf("validation failure classified transient: %v", err)
	}
	if resp.Appended != 1 {
		t.Fatalf("committed prefix %d, want 1", resp.Appended)
	}
	if cl.Retries() != 0 {
		t.Fatalf("non-transient failure burned %d retries", cl.Retries())
	}
}

// TestAppendRetryResumesAfterPartialCommit scripts a server over net.Pipe
// that commits a prefix and then fails transiently: the retry must re-send
// only the uncommitted suffix, so no row is ever applied twice.
func TestAppendRetryResumesAfterPartialCommit(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	defer sconn.Close()
	cl := NewClient(cconn)

	var resent []IngestRow
	go func() {
		// First attempt: two rows committed, then a transient rejection.
		var req Request
		if err := ReadFrame(sconn, &req); err != nil {
			return
		}
		WriteFrame(sconn, &Response{V: Version, Appended: 2, Transient: true,
			Error: "locked mid-batch"})
		// Second attempt must carry only the remaining rows.
		if err := ReadFrame(sconn, &req); err != nil {
			return
		}
		resent = req.Rows
		WriteFrame(sconn, &Response{V: Version, OK: true, Appended: len(req.Rows)})
	}()

	rows := []IngestRow{
		{Time: 1, Attrs: []float64{1}},
		{Time: 2, Attrs: []float64{2}},
		{Time: 3, Attrs: []float64{3}},
		{Time: 4, Attrs: []float64{4}},
	}
	resp, err := cl.AppendRetry("stream", rows, fastRetry())
	if err != nil {
		t.Fatalf("AppendRetry: %v", err)
	}
	if resp.Appended != 4 {
		t.Fatalf("aggregated Appended = %d, want 4", resp.Appended)
	}
	if len(resent) != 2 || resent[0].Time != 3 || resent[1].Time != 4 {
		t.Fatalf("retry re-sent %+v, want exactly the uncommitted suffix [3 4]", resent)
	}
}

// TestAppendRetryStopsOnTransportFailure: a connection that dies before the
// response frame leaves the commit state of the in-flight rows unknown, so
// AppendRetry must not blindly re-send over a dead connection — it returns
// ErrIndeterminate immediately, burning no retries, instead of risking a
// double-applied batch.
func TestAppendRetryStopsOnTransportFailure(t *testing.T) {
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	cl := NewClient(cconn)
	go func() {
		var req Request
		if err := ReadFrame(sconn, &req); err != nil {
			return
		}
		sconn.Close() // hang up after reading: the rows may have been applied
	}()
	resp, err := cl.AppendRetry("stream", []IngestRow{
		{Time: 1, Attrs: []float64{1}},
		{Time: 2, Attrs: []float64{2}},
	}, fastRetry())
	if !errors.Is(err, ErrIndeterminate) {
		t.Fatalf("transport failure returned %v, want ErrIndeterminate", err)
	}
	if resp.Appended != 0 {
		t.Fatalf("no response frame ever arrived, yet Appended = %d", resp.Appended)
	}
	if cl.Retries() != 0 {
		t.Fatalf("dead connection burned %d retries", cl.Retries())
	}
}

// TestDialRetryWaitsForServer: connection-refused is transient, so DialRetry
// rides out a server that has not finished starting (e.g. WAL replay).
func TestDialRetryWaitsForServer(t *testing.T) {
	// Reserve a port, then free it so the first dials are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	srv := NewServer(func(string, ...interface{}) {})
	go func() {
		time.Sleep(30 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will fail and report
		}
		srv.Serve(ln)
	}()
	defer srv.Close()

	cl, err := DialRetry(addr, fastRetry())
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping after retried dial: %v", err)
	}

	// A structurally hopeless address is not transient: one attempt, no wait.
	start := time.Now()
	if _, err := DialRetry("no-port-here", fastRetry()); err == nil {
		t.Fatal("dial of malformed address succeeded")
	} else if IsTransient(err) {
		t.Fatalf("malformed address classified transient: %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("non-transient dial failure kept retrying")
	}
}

// TestAddLiveQuerier covers registration through the split query/ingest
// surface (the hook a durability store uses to interpose on appends).
func TestAddLiveQuerier(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	le, err := core.NewLiveEngine(1, core.Options{}, core.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddLiveQuerier("split", le, nil, nil); err == nil {
		t.Fatal("nil ingest surface accepted")
	}
	if err := srv.AddLiveQuerier("split", le, le, nil); err != nil {
		t.Fatal(err)
	}
	cconn, sconn := net.Pipe()
	go srv.ServeConn(sconn)
	cl := NewClient(cconn)
	defer cl.Close()
	resp, err := cl.Append("split", []IngestRow{{Time: 1, Attrs: []float64{7}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 1 {
		t.Fatalf("append through split registration: %+v", resp)
	}
	infos, err := cl.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || !infos[0].Live || infos[0].Len != 1 {
		t.Fatalf("split dataset info %+v", infos)
	}
}

// TestServerErrorRendering pins the historical error text so older callers
// matching on the string keep working.
func TestServerErrorRendering(t *testing.T) {
	_, cl := startServer(t)
	_, _, err := cl.Query(Request{Dataset: "nope", QuerySpec: QuerySpec{K: 1, Tau: 1, Weights: []float64{1, 1}}})
	if err == nil || !strings.Contains(err.Error(), "wire: server: ") {
		t.Fatalf("server error lost its rendering: %v", err)
	}
}
