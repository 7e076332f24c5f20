package wire

import (
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// TestInboundFrameCoversEvent: an Event with every field set comes back whole
// through the client's single frame decode. A field added to Event fails the
// zero-field check below until it is set here, and then fails the round trip
// until inboundFrame carries it.
func TestInboundFrameCoversEvent(t *testing.T) {
	sent := Event{V: Version2, Event: EventSub, SubID: 7, Prefix: 120, Seq: 9,
		Decision: &LiveDecision{ID: 3, Time: 118, Durable: true, Rank: 2},
		Confirms: []LiveConfirmation{{ID: 1, Time: 90, Durable: true, Beaten: 4, Truncated: true}}}
	rv := reflect.ValueOf(sent)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Fatalf("Event.%s is not set in this test", rv.Type().Field(i).Name)
		}
	}
	payload, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	var f inboundFrame
	if err := json.Unmarshal(payload, &f); err != nil {
		t.Fatal(err)
	}
	if got := f.event(); !reflect.DeepEqual(got, sent) {
		t.Fatalf("event came back as %+v, sent %+v", got, sent)
	}
}

// hugeAnswer answers every query with n records, whatever is asked: more
// than MaxFrame bytes of JSON for a large n.
type hugeAnswer struct {
	core.Querier
	n int
}

func (h hugeAnswer) DurableTopK(core.Query) (*core.Result, error) {
	res := &core.Result{Records: make([]core.ResultRecord, h.n)}
	for i := range res.Records {
		res.Records[i] = core.ResultRecord{ID: i, Time: int64(i + 1), Score: float64(i) + 0.25, MaxDuration: -1}
	}
	return res, nil
}

// TestUnsendableAnswerIsAnError: an answer the server cannot encode — an
// infinite score, or a frame over MaxFrame — comes back as an error response
// naming why, on v1 and v2 connections alike, and the connection keeps
// serving. Such an answer is never cached: every repeat is evaluated again
// and refused again, and the cache stays empty.
func TestUnsendableAnswerIsAnError(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	cache := serve.NewCache(64)
	srv.SetCache(cache)
	ds := testDataset(t, 500, 1)
	if err := addStatic(srv, "games", ds, []string{"points", "assists"}); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddQuerier("huge", hugeAnswer{Querier: core.NewEngine(ds, core.Options{}), n: 250000}, nil); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	for _, v2 := range []bool{false, true} {
		cl, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		// A server that never answers fails the test instead of hanging it.
		cl.conn.SetDeadline(time.Now().Add(10 * time.Second))
		if v2 {
			if _, _, err := cl.Hello(FeatureEvents, FeatureBackfill); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range []struct {
			op   string
			req  Request
			want string
		}{
			{OpQuery, Request{Dataset: "games", QuerySpec: QuerySpec{K: 3, Tau: 50, Weights: []float64{1e308, 1e308}}}, "record score is not finite"},
			// Every score is +Inf. (A NaN scorer is left out: T-Hop need not
			// terminate on NaN scores.)
			{OpQuery, Request{Dataset: "games", QuerySpec: QuerySpec{K: 3, Tau: 50, Expr: "1/(points - points)"}}, "record score is not finite"},
			{OpMostDurable, Request{Dataset: "games", QuerySpec: QuerySpec{K: 2, N: 4, Expr: "1/(points - points)"}}, "record score is not finite"},
			{OpQuery, Request{Dataset: "huge", QuerySpec: QuerySpec{K: 3, Tau: 50, Weights: []float64{1, 1}}}, "answer exceeds the frame limit"},
		} {
			for repeat := 0; repeat < 3; repeat++ {
				var err error
				if c.op == OpMostDurable {
					_, err = cl.MostDurable(c.req)
				} else {
					_, _, err = cl.Query(c.req)
				}
				var se *ServerError
				if !errors.As(err, &se) || !strings.Contains(se.Msg, c.want) {
					t.Fatalf("v2=%v %s %s repeat %d: got %v, want a server error containing %q", v2, c.op, c.req.Dataset, repeat, err, c.want)
				}
				if st := cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
					t.Fatalf("v2=%v %s %s repeat %d: an unsendable answer was cached: %+v", v2, c.op, c.req.Dataset, repeat, st)
				}
				if err := cl.Ping(); err != nil {
					t.Fatalf("v2=%v %s: ping after the refused answer: %v", v2, c.req.Dataset, err)
				}
			}
		}
	}
	// Every request above was looked up and missed; none was stored.
	if st := cache.Stats(); st.Hits != 0 || st.Misses != 2*4*3 {
		t.Fatalf("cache stats %+v, want 24 misses and no hit", st)
	}
}
