package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
)

// The golden frames below are byte captures of v1 requests as the
// pre-QuerySpec god-struct marshaled them. The QuerySpec extraction must not
// move, rename or reorder any JSON key: v1 servers and clients in the field
// parse these exact bytes, and the embedded-struct refactor is only
// backward compatible if marshaling reproduces them bit-for-bit.
var goldenV1Frames = []struct {
	name string
	req  Request
	json string
}{
	{
		name: "query with weights and explicit interval",
		req: Request{V: Version, Op: OpQuery, Dataset: "games", QuerySpec: QuerySpec{
			K: 3, Tau: 60, Start: 5, End: 90, ExplicitInterval: true,
			Weights: []float64{1, 0.5},
		}},
		json: `{"v":1,"op":"query","dataset":"games","k":3,"tau":60,"start":5,"end":90,"explicitInterval":true,"weights":[1,0.5]}`,
	},
	{
		name: "most-durable with expression and anchor",
		req: Request{V: Version, Op: OpMostDurable, Dataset: "games", QuerySpec: QuerySpec{
			K: 1, N: 5, Anchor: "look-ahead", Expr: "points + log1p(assists)",
		}},
		json: `{"v":1,"op":"most-durable","dataset":"games","k":1,"n":5,"anchor":"look-ahead","expr":"points + log1p(assists)"}`,
	},
	{
		name: "explain with every scalar knob",
		req: Request{V: Version, Op: OpExplain, Dataset: "d", QuerySpec: QuerySpec{
			K: 2, Tau: 10, Lead: 4, Anchor: "general", Algorithm: "s-hop",
			Weights: []float64{1}, WithDurations: true,
		}},
		json: `{"v":1,"op":"explain","dataset":"d","k":2,"tau":10,"lead":4,"anchor":"general","algorithm":"s-hop","weights":[1],"withDurations":true}`,
	},
	{
		name: "append batch",
		req: Request{V: Version, Op: OpAppend, Dataset: "stream",
			Rows: []IngestRow{{Time: 7, Attrs: []float64{1, 2}}, {Time: 9, Attrs: []float64{3, 4}}}},
		json: `{"v":1,"op":"append","dataset":"stream","rows":[{"time":7,"attrs":[1,2]},{"time":9,"attrs":[3,4]}]}`,
	},
	{
		name: "ping carries nothing extra",
		req:  Request{V: Version, Op: OpPing},
		json: `{"v":1,"op":"ping"}`,
	},
}

// TestGoldenV1RequestFrames: marshaling a post-refactor Request must emit the
// pre-refactor bytes, and parsing the pre-refactor bytes must rebuild the
// identical struct.
func TestGoldenV1RequestFrames(t *testing.T) {
	for _, g := range goldenV1Frames {
		t.Run(g.name, func(t *testing.T) {
			got := encodeBoth(t, &g.req)
			if string(got) != g.json {
				t.Fatalf("marshal drifted from the v1 capture:\n got  %s\n want %s", got, g.json)
			}
			var back Request
			if err := json.Unmarshal([]byte(g.json), &back); err != nil {
				t.Fatal(err)
			}
			reGot, err := json.Marshal(back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(reGot, got) {
				t.Fatalf("unmarshal/marshal round trip drifted:\n got  %s\n want %s", reGot, got)
			}
		})
	}
}

// TestGoldenV1WireFraming pins the full frame encoding (4-byte big-endian
// length prefix + JSON payload) for one representative request.
func TestGoldenV1WireFraming(t *testing.T) {
	g := goldenV1Frames[0]
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &g.req); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if len(frame) < 4 {
		t.Fatalf("frame too short: %d bytes", len(frame))
	}
	if n := binary.BigEndian.Uint32(frame[:4]); int(n) != len(g.json) {
		t.Fatalf("length prefix %d, payload is %d bytes", n, len(g.json))
	}
	if string(frame[4:]) != g.json {
		t.Fatalf("payload drifted:\n got  %s\n want %s", frame[4:], g.json)
	}
}

// TestGoldenStatsFrame pins the stats object of a query response: with no
// shard pruned it is byte-identical to what servers before shardsPruned sent,
// and a pruned count appears under its own key without moving the others.
func TestGoldenStatsFrame(t *testing.T) {
	st := Stats{Algorithm: "s-hop", CheckQueries: 3, FindQueries: 2, MaintQueries: 1,
		CandidateCount: 4, Visited: 5, ElapsedMicros: 6}
	for _, g := range []struct {
		pruned int
		json   string
	}{
		{0, `{"algorithm":"s-hop","checkQueries":3,"findQueries":2,"maintQueries":1,"candidateCount":4,"visited":5,"elapsedMicros":6}`},
		{2, `{"algorithm":"s-hop","checkQueries":3,"findQueries":2,"maintQueries":1,"candidateCount":4,"visited":5,"shardsPruned":2,"elapsedMicros":6}`},
	} {
		st.ShardsPruned = g.pruned
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != g.json {
			t.Fatalf("stats frame drifted:\n got  %s\n want %s", got, g.json)
		}
		resp := encodeBoth(t, &Response{V: Version, OK: true, Stats: &st})
		if want := `{"v":1,"ok":true,"stats":` + g.json + `}`; string(resp) != want {
			t.Fatalf("response frame drifted:\n got  %s\n want %s", resp, want)
		}
		var back Stats
		if err := json.Unmarshal([]byte(g.json), &back); err != nil || back != st {
			t.Fatalf("round trip: %+v (err %v), want %+v", back, err, st)
		}
	}
}

// TestV2FieldsMarshalAway: the fields added for protocol v2 and v2.1 must be
// invisible on v1 frames — a v1 request marshals without features/subId (or
// the v2.1 backfill keys) and a v1 response without them either, so old
// peers never see unknown keys.
func TestV2FieldsMarshalAway(t *testing.T) {
	b, err := json.Marshal(Request{V: Version, Op: OpPing})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"features", "subId", "backfill", "fromPrefix", "subKey"} {
		if bytes.Contains(b, []byte(key)) {
			t.Fatalf("v1 request leaks v2 key %q: %s", key, b)
		}
	}
	rb := encodeBoth(t, &Response{V: Version, OK: true})
	if string(rb) != `{"v":1,"ok":true}` {
		t.Fatalf("v1 response frame drifted: %s", rb)
	}
	for _, key := range []string{"features", "subId", "event", "subKey", "base"} {
		if bytes.Contains(rb, []byte(key)) {
			t.Fatalf("v1 response leaks v2 key %q: %s", key, rb)
		}
	}
}

// TestV21FieldsMarshalAwayOnV20Frames: a v2.0 session's frames must not grow
// the v2.1 keys either — subscribe responses without the backfill feature
// carry no subKey/base, and event frames no seq — so v2.0 golden bytes in
// the field stay byte-identical.
func TestV21FieldsMarshalAwayOnV20Frames(t *testing.T) {
	rb := encodeBoth(t, &Response{V: Version2, OK: true, SubID: 3})
	if string(rb) != `{"v":2,"ok":true,"subId":3}` {
		t.Fatalf("v2.0 subscribe response drifted: %s", rb)
	}
	for _, key := range []string{"subKey", "base", "backfill", "fromPrefix"} {
		if bytes.Contains(rb, []byte(key)) {
			t.Fatalf("v2.0 subscribe response leaks v2.1 key %q: %s", key, rb)
		}
	}
	eb := encodeBoth(t, &Event{V: Version2, Event: EventSub, SubID: 3, Prefix: 17,
		Decision: &LiveDecision{ID: 16, Time: 99, Durable: true, Rank: 1}})
	if bytes.Contains(eb, []byte("seq")) {
		t.Fatalf("v2.0 event frame leaks v2.1 key \"seq\": %s", eb)
	}
	want := `{"v":2,"event":"sub","subId":3,"prefix":17,"decision":{"id":16,"time":99,"durable":true,"rank":1}}`
	if string(eb) != want {
		t.Fatalf("v2.0 event frame drifted:\n got  %s\n want %s", eb, want)
	}
}

// encodeBoth encodes v with json.Marshal and as a frame through WriteFrame —
// the server's path — and fails unless the header is right and the payload
// is json.Marshal's, byte for byte. It returns the payload.
func encodeBoth(t *testing.T, v interface{}) []byte {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, v); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	if n := binary.BigEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("length header %d, payload %d bytes", n, len(frame)-4)
	}
	if !bytes.Equal(frame[4:], want) {
		t.Fatalf("WriteFrame differs from json.Marshal:\n got  %s\n want %s", frame[4:], want)
	}
	return want
}

// TestGoldenResponseFrame pins a query answer's frame: records with and
// without a duration, a full-history flag, and stats with a pruned shard
// count, keys in struct order and omitted fields absent.
func TestGoldenResponseFrame(t *testing.T) {
	resp := &Response{V: Version, OK: true,
		Records: []Record{
			{ID: 4, Time: 17, Score: 2.5, MaxDuration: 12, FullHistory: true},
			{ID: 9, Time: 30, Score: -0.125, MaxDuration: -1},
			{ID: 11, Time: 31, Score: 1e-7},
		},
		Stats: &Stats{Algorithm: "t-hop", CheckQueries: 5, FindQueries: 1, MaintQueries: 0,
			CandidateCount: 2, Visited: 40, ShardsPruned: 3, ElapsedMicros: 87},
	}
	want := `{"v":1,"ok":true,"records":[` +
		`{"id":4,"time":17,"score":2.5,"maxDuration":12,"fullHistory":true},` +
		`{"id":9,"time":30,"score":-0.125,"maxDuration":-1},` +
		`{"id":11,"time":31,"score":1e-7}],` +
		`"stats":{"algorithm":"t-hop","checkQueries":5,"findQueries":1,"maintQueries":0,` +
		`"candidateCount":2,"visited":40,"shardsPruned":3,"elapsedMicros":87}}`
	if got := encodeBoth(t, resp); string(got) != want {
		t.Fatalf("response frame drifted:\n got  %s\n want %s", got, want)
	}
}

// TestGoldenAppendResponseFrame pins the frame the server answers a
// two-row append with: the committed count and nothing else, since
// per-append verdicts travel as subscription events.
func TestGoldenAppendResponseFrame(t *testing.T) {
	srv := NewServer(nil)
	addLive(t, srv, "stream", 2, nil)
	resp := srv.handleAppend(&Request{V: Version, Op: OpAppend, Dataset: "stream",
		Rows: []IngestRow{{Time: 1, Attrs: []float64{1, 2}}, {Time: 2, Attrs: []float64{3, 4}}}})
	if got, want := encodeBoth(t, resp), `{"v":1,"ok":true,"appended":2}`; string(got) != want {
		t.Fatalf("append response frame drifted:\n got  %s\n want %s", got, want)
	}
}
