package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// subEventBuffer is each client subscription's event channel capacity. The
// reader goroutine never blocks delivering into it — a consumer that stops
// draining loses events locally (counted by Subscription.Dropped) instead of
// stalling responses for the whole client.
const subEventBuffer = 1024

// Hello negotiates the connection's protocol version, offering the given
// feature flags (FeatureEvents enables subscriptions). It returns the
// negotiated version and the feature subset the server accepted. Against a
// v1 server the call fails with a version error and the connection remains a
// perfectly good v1 session — clients that can work without subscriptions
// should treat that as a downgrade, not a failure.
//
// When v2 is negotiated the client hands its read side to a demultiplexer
// goroutine: responses still arrive strictly in request order, with
// server-pushed event frames routed to their subscriptions in between. The
// v1 request methods all keep working unchanged on top.
func (c *Client) Hello(features ...string) (int, []string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.respCh != nil {
		return 0, nil, errors.New("wire: hello already negotiated on this connection")
	}
	req := Request{V: Version2, Op: OpHello, Features: features}
	if err := WriteFrame(c.bw, &req); err != nil {
		return 0, nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return 0, nil, err
	}
	var resp Response
	if err := ReadFrame(c.br, &resp); err != nil {
		return 0, nil, err
	}
	if !resp.OK {
		return 0, nil, &ServerError{Msg: resp.Error, Transient: resp.Transient}
	}
	if resp.V >= Version2 {
		c.features = resp.Features
		c.respCh = make(chan *Response, 1)
		c.readDone = make(chan struct{})
		c.subMu.Lock()
		c.subs = make(map[uint64]*Subscription)
		c.pending = make(map[uint64][]Event)
		c.subMu.Unlock()
		go c.readLoop()
	}
	return resp.V, resp.Features, nil
}

// V2 reports whether this connection negotiated protocol v2.
func (c *Client) V2() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.respCh != nil
}

// Features returns the feature flags the server accepted at Hello.
func (c *Client) Features() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.features
}

// readLoop demultiplexes the connection's inbound frames on a v2 session:
// event frames (non-empty "event" key) route to their subscription, anything
// else is the response to the single in-flight request.
func (c *Client) readLoop() {
	defer close(c.readDone)
	for {
		payload, err := ReadRawFrame(c.br)
		if err != nil {
			c.failRead(err)
			return
		}
		var f inboundFrame
		if err := json.Unmarshal(payload, &f); err != nil {
			c.failRead(fmt.Errorf("wire: decoding frame: %w", err))
			return
		}
		if f.Event != "" {
			ev := f.event()
			c.dispatchEvent(&ev)
			continue
		}
		// Buffered (capacity 1): with one request in flight there is at most
		// one routable response, so this never blocks the demultiplexer.
		c.respCh <- &f.Response
	}
}

// inboundFrame decodes either kind of v2 server frame in one pass. Response
// and Event share only "v" and "subId", with the same JSON types, so the
// Event-only keys sit beside an embedded Response; a non-empty Event marks an
// event frame.
type inboundFrame struct {
	Response
	Event    string             `json:"event"`
	Prefix   int                `json:"prefix"`
	Seq      uint64             `json:"seq,omitempty"`
	Decision *LiveDecision      `json:"decision,omitempty"`
	Confirms []LiveConfirmation `json:"confirms,omitempty"`
}

// event assembles the Event an event frame carried.
func (f *inboundFrame) event() Event {
	return Event{V: f.V, Event: f.Event, SubID: f.SubID, Prefix: f.Prefix,
		Seq: f.Seq, Decision: f.Decision, Confirms: f.Confirms}
}

// failRead records the terminal read error, wakes the in-flight request (if
// any) and closes every subscription's event channel so consumers observe
// the end of their streams. c.subs goes nil — the marker Subscribe checks to
// learn the reader died under it — but c.pending survives: a Subscribe whose
// response was already in flight claims its parked events from there, so a
// page the server delivered right before closing (an eviction's backlog) is
// handed to the consumer instead of vanishing.
func (c *Client) failRead(err error) {
	c.subMu.Lock()
	c.readErr = err
	subs := c.subs
	c.subs = nil
	c.subMu.Unlock()
	close(c.respCh)
	for _, s := range subs {
		close(s.events)
	}
}

// readError renders the reason the demultiplexer stopped.
func (c *Client) readError() error {
	c.subMu.Lock()
	defer c.subMu.Unlock()
	if c.readErr != nil {
		return c.readErr
	}
	return errors.New("wire: connection closed")
}

// dispatchEvent routes one event frame. Events can legitimately arrive for a
// subscription whose subscribe response is still in flight — the server may
// interleave an append's verdicts ahead of the acknowledgment — so unknown
// ids above the acknowledged watermark are parked and replayed, in order,
// when Subscribe learns its id. Ids at or below the watermark belong to
// subscriptions already torn down; those frames are dropped.
func (c *Client) dispatchEvent(ev *Event) {
	c.subMu.Lock()
	if s := c.subs[ev.SubID]; s != nil {
		c.subMu.Unlock()
		s.deliver(*ev)
		return
	}
	if c.pending != nil && ev.SubID > c.maxSub {
		c.pending[ev.SubID] = append(c.pending[ev.SubID], *ev)
	}
	c.subMu.Unlock()
}

// Subscription is a standing durable top-k query held on one client
// connection. Events arrive on Events() in append order, gap-free unless the
// consumer falls behind (see Dropped).
type Subscription struct {
	id      uint64
	subKey  uint64
	base    int
	c       *Client
	events  chan Event
	dropped atomic.Int64
}

func (s *Subscription) deliver(ev Event) {
	select {
	case s.events <- ev:
	default:
		s.dropped.Add(1)
	}
}

// ID returns the server-assigned (connection-local) subscription id.
func (s *Subscription) ID() uint64 { return s.id }

// SubKey returns the subscription's durable registry key, or zero on
// connections that did not negotiate the backfill feature. The key outlives
// this connection: a later connection resumes the subscription by sending it
// in a subscribe request (with FromPrefix naming the last event received).
func (s *Subscription) SubKey() uint64 { return s.subKey }

// Base returns the committed prefix the subscription's verdicts start after,
// as reported by a backfill-negotiated subscribe; zero otherwise. A consumer
// that has received no events yet resumes from Base.
func (s *Subscription) Base() int { return s.base }

// Events is the subscription's verdict stream. It closes when the
// subscription is dropped (Unsubscribe) or the connection dies; consumers
// should drain promptly — the channel buffers subEventBuffer frames (beyond
// those that arrived ahead of the subscribe response, which are all kept) and
// the client drops, counting, beyond that.
func (s *Subscription) Events() <-chan Event { return s.events }

// Dropped reports how many events were discarded because the consumer let
// the channel buffer fill. The server-side stream itself is gap-free: a
// nonzero count means this process fell behind, not the protocol.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Subscribe registers a standing query on a live dataset and returns its
// event stream. The request carries Dataset plus the query parameters
// (K, Tau, Weights or Expr, optional Anchor and interval); see the server's
// subscribe contract for what is accepted. Requires a v2 session with the
// events feature (Hello(FeatureEvents)).
func (c *Client) Subscribe(req Request) (*Subscription, error) {
	if !c.V2() {
		return nil, errors.New("wire: subscribe requires protocol v2 (call Hello first)")
	}
	req.Op = OpSubscribe
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	s := &Subscription{id: resp.SubID, subKey: resp.SubKey, base: resp.Base, c: c}
	c.subMu.Lock()
	// The frames the reader parked for this id are replayed before any
	// consumer can have read one, so the channel is sized to take them all on
	// top of its usual buffer: a resume's backlog page, parked whole while this
	// goroutine waited for a CPU, would otherwise lose whatever lay beyond
	// subEventBuffer — a gap the server never made.
	parked := c.pending[resp.SubID]
	delete(c.pending, resp.SubID)
	s.events = make(chan Event, subEventBuffer+len(parked))
	for _, ev := range parked {
		s.deliver(ev)
	}
	if c.subs == nil {
		// The reader died between the response and here. The frames it parked
		// before dying still count — a server that evicts immediately after
		// replaying a backlog page closes exactly this way, and dropping the
		// page would cost the consumer progress it already paid for — so they
		// were delivered above; now close.
		c.subMu.Unlock()
		close(s.events)
		return s, nil
	}
	if resp.SubID > c.maxSub {
		c.maxSub = resp.SubID
	}
	c.subs[resp.SubID] = s
	c.subMu.Unlock()
	return s, nil
}

// Unsubscribe drops a standing query. The server flushes the subscription's
// still-pending look-ahead candidates as one final truncated event before
// acknowledging, so by the time Unsubscribe returns the final event has been
// delivered and the subscription's channel is closed.
func (c *Client) Unsubscribe(s *Subscription) error {
	_, err := c.do(Request{Op: OpUnsubscribe, SubID: s.id})
	if err != nil {
		return err
	}
	// The acknowledgment was routed by the reader after every earlier frame —
	// the final event included — so closing here cannot race a delivery.
	c.subMu.Lock()
	_, live := c.subs[s.id]
	delete(c.subs, s.id)
	c.subMu.Unlock()
	if live {
		close(s.events)
	}
	return nil
}

// Follower maintains a standing query across reconnects: it dials, upgrades
// to v2 offering the events and backfill features, subscribes, and forwards
// events to one channel; when the connection dies it re-dials under the
// retry policy and splices back into the stream.
//
// Against a backfill-capable server the merged stream is gap-free and
// duplicate-free: the first subscribe yields a durable registry key, each
// reconnect resumes that key from the last event received, the server
// replays everything missed before going live, and sequence numbers let the
// follower drop the rare overlap a conservative resume point produces. A
// server-side eviction (the follower fell too far behind) announces itself
// with a terminal evicted frame; the follower swallows it, counts it
// (Evictions) and resumes exactly like any other disconnect. Only if a
// resume is rejected — the registration no longer exists, e.g. a restart of
// a server that does not persist its registry — does the follower fall back
// to a fresh subscription, counting the seam in Resets; verdicts for rows
// appended before the fresh base are then permanently missed, exactly the
// legacy behavior.
//
// Against a server that grants only the events feature every reconnect
// re-registers fresh — the new subscription's monitor starts from the
// dataset's then-current prefix, so verdicts for rows appended while
// disconnected are not replayed. Consumers detect the seam by the jump in
// Event.Prefix (and can re-query the interval to backfill).
type Follower struct {
	addr   string
	req    Request
	policy RetryPolicy

	events chan Event
	stop   chan struct{}

	// Resume state, touched only by the follower's own goroutine (Follow's
	// synchronous first connect included — run starts after).
	backfill   bool
	subKey     uint64
	lastPrefix int
	lastSeq    uint64

	reconnects atomic.Int64
	resets     atomic.Int64
	evictions  atomic.Int64
	err        atomic.Pointer[error]
}

// Follow starts a follower for the given subscribe request against addr.
// The initial connection is established synchronously so misconfiguration
// (bad address, unknown dataset, invalid query) fails fast; subsequent
// reconnects happen in the background.
func Follow(addr string, req Request, p RetryPolicy) (*Follower, error) {
	p = p.withDefaults()
	f := &Follower{
		addr: addr, req: req, policy: p,
		events: make(chan Event, subEventBuffer),
		stop:   make(chan struct{}),
	}
	c, s, err := f.connect()
	if err != nil {
		return nil, err
	}
	go f.run(c, s)
	return f, nil
}

// connect establishes a subscribed session under the retry policy. Transport
// failures — the dial itself, or a connection cut mid-handshake — back off
// and retry like any other disconnect; only a server that answers with a
// permanent rejection (bad dataset, invalid query) fails fast, because
// misconfiguration does not heal by redialing.
func (f *Follower) connect() (*Client, *Subscription, error) {
	var deadline time.Time
	if f.policy.MaxElapsed > 0 {
		deadline = time.Now().Add(f.policy.MaxElapsed)
	}
	delay := f.policy.BaseDelay
	for attempt := 1; ; attempt++ {
		select {
		case <-f.stop:
			return nil, nil, errors.New("wire: follower closed")
		default:
		}
		c, s, err := f.connectOnce()
		if err == nil {
			return c, s, nil
		}
		var se *ServerError
		if errors.As(err, &se) && !se.Transient {
			return nil, nil, err
		}
		if attempt >= f.policy.MaxAttempts ||
			(!deadline.IsZero() && !time.Now().Before(deadline)) {
			return nil, nil, err
		}
		delay = f.policy.sleep(delay)
	}
}

// connectOnce dials, negotiates v2 offering events+backfill, and subscribes:
// resuming the durable registration when one exists, registering fresh
// otherwise.
func (f *Follower) connectOnce() (*Client, *Subscription, error) {
	c, err := Dial(f.addr)
	if err != nil {
		return nil, nil, err
	}
	_, feats, err := c.Hello(FeatureEvents, FeatureBackfill)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	backfill := false
	for _, ft := range feats {
		if ft == FeatureBackfill {
			backfill = true
		}
	}
	if backfill && f.subKey != 0 {
		req := f.req
		req.SubKey = f.subKey
		req.FromPrefix = f.lastPrefix
		s, err := c.Subscribe(req)
		if err == nil {
			f.backfill = true
			return c, s, nil
		}
		var se *ServerError
		if !errors.As(err, &se) {
			// The connection died under the resume request; nothing was
			// rejected and the key is still good. Retry the whole handshake.
			c.Close()
			return nil, nil, err
		}
		// The server answered no: the registration is gone (dropped, or the
		// server restarted without a durable registry). Fall back to a fresh
		// subscription: a seam, not a failure — but a counted one.
		f.resets.Add(1)
		f.subKey = 0
	}
	s, err := c.Subscribe(f.req)
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	f.backfill = backfill
	if backfill {
		f.subKey = s.SubKey()
		f.lastPrefix = s.Base()
		f.lastSeq = 0
	}
	return c, s, nil
}

func (f *Follower) run(c *Client, s *Subscription) {
	defer close(f.events)
	for {
		if !f.forward(c, s) {
			c.Close()
			return
		}
		// The subscription's stream ended: the connection is gone. Re-dial
		// and re-subscribe until stopped or the policy gives up.
		c.Close()
		select {
		case <-f.stop:
			return
		default:
		}
		var err error
		c, s, err = f.connect()
		if err != nil {
			f.err.Store(&err)
			return
		}
		f.reconnects.Add(1)
	}
}

// forward drains one subscription until its stream closes (false to stop
// following entirely, true to reconnect).
func (f *Follower) forward(c *Client, s *Subscription) bool {
	for {
		select {
		case <-f.stop:
			// Best-effort clean teardown: the final truncated event is
			// forwarded if it fits, then the stream ends.
			if err := c.Unsubscribe(s); err == nil {
				for ev := range s.Events() {
					select {
					case f.events <- ev:
					default:
					}
				}
			}
			return false
		case ev, ok := <-s.Events():
			if !ok {
				return true
			}
			if ev.Event == EventEvicted {
				// The server is cutting this connection for falling behind;
				// the frame is bookkeeping, not a verdict. The stream closes
				// next, and the normal resume path replays from lastPrefix.
				f.evictions.Add(1)
				continue
			}
			if f.backfill && ev.Seq != 0 && ev.Seq <= f.lastSeq {
				// A conservative resume point replayed an event already
				// forwarded; the deterministic sequence numbers expose it.
				continue
			}
			select {
			case f.events <- ev:
			case <-f.stop:
				return false
			}
			if f.backfill {
				if ev.Seq != 0 {
					f.lastSeq = ev.Seq
				}
				f.lastPrefix = ev.Prefix
			}
		}
	}
}

// Events is the follower's merged verdict stream across reconnects. It
// closes when Close is called or reconnection gives up (see Err).
func (f *Follower) Events() <-chan Event { return f.events }

// Reconnects reports how many times the follower re-established its
// subscription after losing a connection.
func (f *Follower) Reconnects() int64 { return f.reconnects.Load() }

// Resets reports how many reconnects could not resume the durable
// registration and fell back to a fresh subscription — each one a seam in
// the stream where verdicts for rows appended while disconnected were
// permanently missed. Zero against a server with a durable registry.
func (f *Follower) Resets() int64 { return f.resets.Load() }

// Evictions reports how many times the server evicted this follower for
// falling behind the event stream. Evictions are not seams: the follower
// resumes from its last received event with the gap replayed.
func (f *Follower) Evictions() int64 { return f.evictions.Load() }

// Err reports why the follower stopped, or nil if it is running or was
// closed deliberately.
func (f *Follower) Err() error {
	if p := f.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Close stops following and closes the event stream. Safe to call once.
func (f *Follower) Close() {
	close(f.stop)
}
