// Package wire provides a small network protocol for serving durable top-k
// queries, so one process can build the range top-k index once and many
// clients can explore parameters (k, tau, interval, scoring function)
// interactively — the usage mode the paper's introduction motivates.
//
// The protocol is length-prefixed JSON over any stream connection (TCP in
// cmd/durserved, net.Pipe in tests): each frame is a 4-byte big-endian
// payload length followed by one JSON document. Requests carry an operation
// name plus parameters; every request yields exactly one response on the
// same connection, in order. Scoring functions travel either as linear
// preference weights or as scoring expressions compiled server-side against
// the dataset's attribute names (package expr).
//
// The wire types are versioned through Request.V; servers reject frames
// whose version or size they do not understand rather than guessing.
//
// Protocol v2 (negotiated per connection by an initial "hello" frame) adds
// standing queries: subscribe/unsubscribe operations register a durable
// top-k query against a live dataset, after which the server pushes Event
// frames — interleaved with the usual FIFO responses — carrying each
// subscription's per-append decisions and confirmations, the only place the
// protocol reports them. Connections that never
// send hello stay on v1 semantics untouched. See docs/wire-protocol.md.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Version is the baseline protocol version; every server and client speaks
// it. Version2 adds the hello handshake, subscriptions and server-pushed
// event frames; connections opt in per connection via OpHello.
const (
	Version  = 1
	Version2 = 2
)

// MaxFrame is the default limit on one frame's payload size; both sides
// reject larger frames to bound memory under malformed input.
const MaxFrame = 8 << 20

// Operation names.
const (
	OpPing        = "ping"
	OpDatasets    = "datasets"
	OpQuery       = "query"
	OpExplain     = "explain"
	OpMostDurable = "most-durable"
	OpAppend      = "append"

	// Protocol v2 operations.
	OpHello       = "hello"
	OpSubscribe   = "subscribe"
	OpUnsubscribe = "unsubscribe"
)

// FeatureEvents is the v2 feature flag for server-initiated event frames.
// Hello requests offer feature flags; the response carries the subset the
// server accepted.
const FeatureEvents = "events"

// FeatureBackfill is the feature flag for gap-free standing queries: every
// subscription is keyed (SubKey) and resumable from a prefix with the missed
// events replayed, event frames carry per-subscription sequence numbers, and
// slow subscribers receive a terminal "evicted" frame instead of a silent
// disconnect. Subscriptions need both flags; a server grants FeatureEvents
// and FeatureBackfill together or neither.
const FeatureBackfill = "backfill"

// QuerySpec carries the durable top-k query parameters shared by the
// query, explain, most-durable and subscribe operations. It is embedded in
// Request, so on the wire its fields stay flat and the v1 JSON frame shape
// is byte-for-byte unchanged.
type QuerySpec struct {
	K     int   `json:"k,omitempty"`
	Tau   int64 `json:"tau,omitempty"`
	Lead  int64 `json:"lead,omitempty"`
	Start int64 `json:"start,omitempty"`
	End   int64 `json:"end,omitempty"`

	// ExplicitInterval marks Start/End as a deliberate query interval even
	// when both are zero. Without it a start==end==0 request keeps its
	// historical meaning — "the dataset's full span" — which made the point
	// interval [0,0] unaddressable on datasets whose records start at time 0.
	// Old clients never set the field (it marshals away when false), so the
	// legacy default is preserved; new clients set it whenever the user
	// supplied an interval.
	ExplicitInterval bool `json:"explicitInterval,omitempty"`

	// N is the number of records a most-durable request reports.
	N int `json:"n,omitempty"`

	// Anchor is "look-back" (default), "look-ahead" or "general".
	Anchor string `json:"anchor,omitempty"`
	// Algorithm is "auto" (default) or one of the five strategy names.
	Algorithm string `json:"algorithm,omitempty"`

	// Weights selects a linear preference scorer; Expr selects a compiled
	// scoring expression over the dataset's attribute names. Exactly one
	// must be set for query/explain.
	Weights []float64 `json:"weights,omitempty"`
	Expr    string    `json:"expr,omitempty"`

	// WithDurations also reports each result's maximum durability.
	WithDurations bool `json:"withDurations,omitempty"`
}

// Request is one client frame.
type Request struct {
	V  int    `json:"v"`
	Op string `json:"op"`

	// Dataset names the served dataset (query, explain, subscribe).
	Dataset string `json:"dataset,omitempty"`

	// QuerySpec is embedded so its fields marshal flat, exactly as the v1
	// god-struct laid them out.
	QuerySpec

	// Rows is the batch of records an append request ingests into a live
	// dataset, in strictly increasing time order.
	Rows []IngestRow `json:"rows,omitempty"`

	// Features offers feature flags on a hello request (protocol v2); the
	// request's V field carries the highest version the client speaks.
	Features []string `json:"features,omitempty"`

	// SubID names the subscription an unsubscribe request drops.
	SubID uint64 `json:"subId,omitempty"`

	// SubKey on a subscribe request resumes an existing subscription instead
	// of creating one: the server re-derives and re-sends every event past
	// FromPrefix (the last prefix the client holds), so a reconnect is
	// provably gap-free. FromPrefix without SubKey is rejected. On an
	// unsubscribe request a non-zero SubKey (with Dataset) drops a
	// registration by its key, attached to this connection or not.
	FromPrefix int    `json:"fromPrefix,omitempty"`
	SubKey     uint64 `json:"subKey,omitempty"`
}

// IngestRow is one record of an append request.
type IngestRow struct {
	Time  int64     `json:"time"`
	Attrs []float64 `json:"attrs"`
}

// LiveDecision is the instant look-back verdict a subscription event carries
// for one ingested record.
type LiveDecision struct {
	ID      int   `json:"id"`
	Time    int64 `json:"time"`
	Durable bool  `json:"durable"`
	Rank    int   `json:"rank"`
}

// LiveConfirmation is the delayed look-ahead verdict for a past record whose
// durability window closed during an append.
type LiveConfirmation struct {
	ID        int   `json:"id"`
	Time      int64 `json:"time"`
	Durable   bool  `json:"durable"`
	Beaten    int   `json:"beaten"`
	Truncated bool  `json:"truncated,omitempty"`
}

// Record is one durable record of a query response.
type Record struct {
	ID          int     `json:"id"`
	Time        int64   `json:"time"`
	Score       float64 `json:"score"`
	MaxDuration int64   `json:"maxDuration,omitempty"`
	FullHistory bool    `json:"fullHistory,omitempty"`
}

// Stats mirrors the engine's evaluation statistics.
type Stats struct {
	Algorithm      string `json:"algorithm"`
	CheckQueries   int    `json:"checkQueries"`
	FindQueries    int    `json:"findQueries"`
	MaintQueries   int    `json:"maintQueries"`
	CandidateCount int    `json:"candidateCount"`
	Visited        int    `json:"visited"`
	// ShardsPruned is core.Stats.ShardsPruned: shard visits the engine
	// skipped (a plain engine counts as one shard). Omitted when zero, as it
	// is on every query that prunes nothing.
	ShardsPruned  int   `json:"shardsPruned,omitempty"`
	ElapsedMicros int64 `json:"elapsedMicros"`
}

// DatasetInfo describes one served dataset.
type DatasetInfo struct {
	Name  string   `json:"name"`
	Len   int      `json:"len"`
	Dims  int      `json:"dims"`
	Start int64    `json:"start"`
	End   int64    `json:"end"`
	Attrs []string `json:"attrs,omitempty"` // names usable in expressions
	Live  bool     `json:"live,omitempty"`  // accepts append requests
	// Shards is the number of time shards currently serving the dataset:
	// fixed for a sharded registration, sealed+tail for a live+sharded one,
	// and 0 for single-engine datasets.
	Shards int `json:"shards,omitempty"`
}

// Response is one server frame.
type Response struct {
	V     int    `json:"v"`
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Transient marks a failure the client may retry verbatim (e.g. a live
	// dataset momentarily locked by a server-side ingest stream); the
	// request was rejected without side effects beyond Appended.
	Transient bool `json:"transient,omitempty"`

	Records  []Record      `json:"records,omitempty"`
	Stats    *Stats        `json:"stats,omitempty"`
	Datasets []DatasetInfo `json:"datasets,omitempty"`
	Plan     string        `json:"plan,omitempty"` // explain output

	// Appended is how many rows an append request committed.
	Appended int `json:"appended,omitempty"`

	// Protocol v2: Features echoes the accepted feature flags on a hello
	// response (with V set to the negotiated version); SubID reports the
	// server-assigned id on a subscribe response.
	Features []string `json:"features,omitempty"`
	SubID    uint64   `json:"subId,omitempty"`

	// Every subscribe response carries SubKey and Base. SubKey is the
	// subscription's durable key: it survives the connection (and, on
	// crash-safe stores, the server process) and names the registration in a
	// resume or keyed unsubscribe. Base is the committed prefix the
	// subscription's verdict stream is anchored at.
	SubKey uint64 `json:"subKey,omitempty"`
	Base   int    `json:"base,omitempty"`

	// payload, when set, is this response already encoded: the writer sends
	// these bytes instead of encoding the fields above, which a replayed
	// cache hit leaves empty. A cached payload is shared by every connection
	// replaying it and is never written to.
	payload []byte
}

// Event is a server-initiated v2 frame pushed to a subscribed connection,
// interleaved with responses. It is distinguishable from a Response by its
// non-empty "event" key; clients sniff that key before decoding. Events for
// one subscription arrive in append order.
type Event struct {
	V     int    `json:"v"`
	Event string `json:"event"` // EventSub
	SubID uint64 `json:"subId"`

	// Prefix is the live dataset's acknowledged row count immediately after
	// the append this event describes — the exact prefix a client can
	// re-query to reproduce the verdicts below bit-identically.
	Prefix int `json:"prefix"`

	// Seq numbers this subscription's events 1, 2, 3, … from its base
	// prefix, on every event frame. The numbering is derived from the
	// committed row stream — a replayed event carries the same number the
	// original did — so a consumer proves gap-freedom by checking
	// contiguity. On an EventEvicted frame, Seq and Prefix report the last
	// event actually delivered to this connection.
	Seq uint64 `json:"seq,omitempty"`

	// Decision is the instant look-back verdict for the appended record, if
	// it falls inside the subscription's interval filter.
	Decision *LiveDecision `json:"decision,omitempty"`
	// Confirms are the delayed look-ahead verdicts that became due at this
	// append (or at subscription shutdown, marked Truncated).
	Confirms []LiveConfirmation `json:"confirms,omitempty"`
}

// EventSub is the Event.Event marker for subscription verdicts.
const EventSub = "sub"

// EventEvicted is the terminal Event.Event marker a slow subscriber
// receives before its connection is severed: the event queue overflowed,
// and rather than silently dropping verdicts (the stream's contract is that
// every verdict is accounted for) the server reports the last delivered
// sequence number and prefix per subscription, then closes. The consumer
// reconnects and resumes from that point with no gap.
const EventEvicted = "evicted"

// Protocol errors shared by both sides.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
)

// ServerError is a request-level failure reported by the server. Transient
// mirrors Response.Transient: the request may be retried verbatim.
type ServerError struct {
	Msg       string
	Transient bool
}

// Error keeps the historical "wire: server: ..." rendering.
func (e *ServerError) Error() string { return "wire: server: " + e.Msg }

// WriteFrame encodes v and writes it as one length-prefixed frame, header
// and payload in one vectored write (a single writev on a TCP connection).
// Nothing is written when v cannot be encoded or its payload exceeds
// MaxFrame.
func WriteFrame(w io.Writer, v interface{}) error {
	payload, err := encodeFrame(v)
	if err != nil {
		return err
	}
	fw := frameWriters.Get().(*frameWriter)
	err = fw.write(w, payload)
	frameWriters.Put(fw)
	return err
}

// ReadFrame reads one length-prefixed frame into v.
func ReadFrame(r io.Reader, v interface{}) error {
	payload, err := ReadRawFrame(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("wire: decoding frame: %w", err)
	}
	return nil
}

// ReadRawFrame reads one length-prefixed frame and returns its payload
// undecoded. V2 clients use it to sniff whether a frame is a server-pushed
// Event (non-empty "event" key) or the response to an in-flight request
// before committing to a decode target.
func ReadRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF signals a cleanly closed peer
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: reading frame body: %w", err)
	}
	return payload, nil
}
