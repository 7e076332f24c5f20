package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
)

// steadyClock reports every evaluation as instant. Stats.ElapsedMicros is
// the one part of an answer that differs between two evaluations of one
// query; without it they encode to the same bytes.
type steadyClock struct{ core.Querier }

func (q steadyClock) DurableTopK(query core.Query) (*core.Result, error) {
	res, err := q.Querier.DurableTopK(query)
	if err == nil {
		res.Stats.Elapsed = 0
	}
	return res, err
}

// readWholeFrame reads one frame off r exactly as it travelled: the 4-byte
// length header, then the payload.
func readWholeFrame(t *testing.T, r io.Reader) []byte {
	t.Helper()
	frame := make([]byte, 4)
	if _, err := io.ReadFull(r, frame); err != nil {
		t.Fatalf("reading a frame header: %v", err)
	}
	frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		t.Fatalf("reading a frame body: %v", err)
	}
	return frame
}

// TestCacheHitWritesMissBytes: on v1 and v2 connections, for query and
// most-durable alike, the frame a cache hit writes is byte for byte the
// frame the miss wrote, and both are the frame of the same answer from a
// server without a cache.
func TestCacheHitWritesMissBytes(t *testing.T) {
	eng := steadyClock{core.NewEngine(testDataset(t, 500, 3), core.Options{})}
	uncached := NewServer(func(string, ...interface{}) {})
	if err := uncached.AddQuerier("games", eng, nil); err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{K: 3, Tau: 40, Weights: []float64{1, 0.5}}},
		{Op: OpMostDurable, Dataset: "games", QuerySpec: QuerySpec{K: 2, N: 5, Weights: []float64{0.2, 2}}},
	}
	for _, v2 := range []bool{false, true} {
		srv, cache, addr := startConcurrentServer(t, 2, 64)
		if err := srv.AddQuerier("games", eng, nil); err != nil {
			t.Fatal(err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		version := Version
		if v2 {
			version = Version2
			if err := WriteFrame(conn, &Request{V: Version2, Op: OpHello, Features: []string{FeatureEvents, FeatureBackfill}}); err != nil {
				t.Fatal(err)
			}
			var hello Response
			if err := ReadFrame(conn, &hello); err != nil || hello.V != Version2 {
				t.Fatalf("hello: %+v, %v", hello, err)
			}
		}
		resident := 0
		for _, req := range reqs {
			req.V = Version
			payload, err := encodeFrame(uncached.handle(&req))
			if err != nil {
				t.Fatal(err)
			}
			want := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
			want = append(want, payload...)
			resident += len(payload)

			req.V = version
			var frames [2][]byte // the miss, then the hit
			for i := range frames {
				if err := WriteFrame(conn, &req); err != nil {
					t.Fatal(err)
				}
				frames[i] = readWholeFrame(t, conn)
			}
			if !bytes.Equal(frames[0], want) {
				t.Fatalf("v2=%v %s: the miss wrote\n %q\nwant the uncached frame\n %q", v2, req.Op, frames[0], want)
			}
			if !bytes.Equal(frames[1], frames[0]) {
				t.Fatalf("v2=%v %s: the hit wrote\n %q\nthe miss wrote\n %q", v2, req.Op, frames[1], frames[0])
			}
		}
		if st := cache.Stats(); st.Hits != 2 || st.Misses != 2 || st.Entries != 2 || st.Bytes != resident {
			t.Fatalf("v2=%v: cache stats %+v, want 2 hits, 2 misses, 2 entries of %d bytes", v2, st, resident)
		}
	}
}

// TestCachedFrameSharedAcrossConnections: several connections, v1 and v2,
// replay one cached answer on a live dataset while appends keep retiring it,
// so stores of fresh payloads race hits writing the resident ones. Every
// frame a client receives must decode to the correct answer: a write to a
// payload after its store — which many writers read at once — shows up here,
// and as a data race under -race.
func TestCachedFrameSharedAcrossConnections(t *testing.T) {
	const rows, readers, rounds = 60, 4, 150
	srv, cache, addr := startConcurrentServer(t, 4, 64)
	addLive(t, srv, "live", 2, nil)

	appender := dialT(t, addr)
	times, attrs := make([]int64, rows), make([][]float64, rows)
	for i := range times {
		times[i], attrs[i] = int64(i+1), []float64{float64(i*7%11) / 3, float64(i % 5)}
		if _, err := appender.Append("live", []IngestRow{{Time: times[i], Attrs: attrs[i]}}); err != nil {
			t.Fatal(err)
		}
	}
	// A look-back answer inside [1, rows] is final once the rows are in:
	// later records lie outside every window it reads.
	ds, err := data.New(times, attrs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.NewEngine(ds, core.Options{}).DurableTopK(core.Query{K: 2, Tau: 6, Start: 1, End: rows,
		Scorer: mustScorer(t, 1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "live", QuerySpec: QuerySpec{K: 2, Tau: 6, Start: 1, End: rows,
		ExplicitInterval: true, Weights: []float64{1, 0.5}}}

	stop := make(chan struct{})
	appended := make(chan error, 1)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for next := int64(rows + 1); ; next++ {
			select {
			case <-stop:
				appended <- nil
				return
			case <-tick.C:
			}
			if _, err := appender.Append("live", []IngestRow{{Time: next, Attrs: []float64{9, 9}}}); err != nil {
				appended <- err
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		cl := dialT(t, addr)
		if r%2 == 1 {
			if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				recs, _, err := cl.Query(req)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(recs) != len(want.Records) {
					t.Errorf("round %d: %d records, want %d", i, len(recs), len(want.Records))
					return
				}
				for j, got := range recs {
					w := want.Records[j]
					if got.ID != w.ID || got.Time != w.Time || got.Score != w.Score {
						t.Errorf("round %d record %d: %+v, want %+v", i, j, got, w)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-appended; err != nil {
		t.Fatalf("append: %v", err)
	}
	st := cache.Stats()
	if st.Hits == 0 || st.Invalidated == 0 {
		t.Fatalf("cache stats %+v: the answer must be both replayed and retired", st)
	}
	t.Logf("cache stats: %+v", st)
}
