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
// serving.
func TestUnsendableAnswerIsAnError(t *testing.T) {
	srv := NewServer(func(string, ...interface{}) {})
	ds := testDataset(t, 500, 1)
	if err := addStatic(srv, "games", ds, nil); err != nil {
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
			dataset string
			weights []float64
			want    string
		}{
			{"games", []float64{1e308, 1e308}, "record score is not finite"},
			{"huge", []float64{1, 1}, "answer exceeds the frame limit"},
		} {
			_, _, err := cl.Query(Request{Dataset: c.dataset, QuerySpec: QuerySpec{K: 3, Tau: 50, Weights: c.weights}})
			var se *ServerError
			if !errors.As(err, &se) || !strings.Contains(se.Msg, c.want) {
				t.Fatalf("v2=%v %s: got %v, want a server error containing %q", v2, c.dataset, err, c.want)
			}
			if err := cl.Ping(); err != nil {
				t.Fatalf("v2=%v %s: ping after the refused answer: %v", v2, c.dataset, err)
			}
		}
	}
}
