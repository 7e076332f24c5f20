package wire

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sub"
)

// eventQueueDepth bounds how many event frames may be queued per connection
// awaiting the writer. A subscriber that falls this far behind the append
// stream is evicted (see connState.pushEvent) rather than silently losing
// events or stalling appends: every delivered event stream is gap-free.
const eventQueueDepth = 1024

// evictGrace bounds how long an eviction spends delivering the queued
// backlog and the terminal evicted frames to a slow subscriber before the
// connection is cut regardless. A watchdog closes the connection at twice
// this grace in case the writer itself is wedged in a deadline-less write.
const evictGrace = 2 * time.Second

// connState is one connection's protocol v2 state. Connections that never
// send a hello keep the zero-ish state from newConnState (v2 false, empty
// queue) and behave exactly as v1 — the fields cost nothing until used.
type connState struct {
	// v2 flips when a hello negotiates protocol v2. Written and read only by
	// the connection's read loop (hello is always handled inline).
	v2 bool
	// subsOK records that the hello granted the "events" and "backfill"
	// features, which come together or not at all: subscriptions on this
	// connection are keyed and durable (they outlive the connection,
	// resumable by SubKey) and their event frames carry sequence numbers.
	subsOK bool

	// events carries server-initiated frames to the connection's writer,
	// which interleaves them with responses at frame granularity. Mostly
	// *Event; a resume handler also routes its acknowledgment *Response
	// through here so the ack precedes the replay backlog on one FIFO.
	events chan interface{}
	// evict signals the writer (buffered, never blocks) that pushEvent
	// overflowed: deliver the backlog and the terminal evicted frames, then
	// close. Only the CAS winner on dead sends, so one signal per life.
	evict chan struct{}
	// dead marks the connection undeliverable (write failure or event-queue
	// overflow); emitters stop enqueueing once set.
	dead atomic.Bool

	// mu guards the subscription table and progress map. Registry emit
	// closures take it only for the progress update in pushEvent; no code
	// path acquires the registry lock while holding mu, so the registry-lock
	// → mu order in emit closures cannot deadlock.
	mu      sync.Mutex
	nextSub uint64
	subs    map[uint64]connSub
	// progress records, per conn-local subscription id, the last event frame
	// enqueued for delivery — what the terminal evicted frame reports so a
	// resuming consumer knows where the stream stopped.
	progress map[uint64]subProgress
}

// subProgress is the last enqueued event position of one subscription.
type subProgress struct {
	seq    uint64
	prefix int
}

// connSub ties a conn-local subscription id to its dataset registry entry.
// Ids are conn-local because registry ids are per dataset: two subscriptions
// on different datasets could otherwise collide on one connection. Every
// registration outlives the connection: teardown detaches it for a later
// resume instead of dropping it.
type connSub struct {
	sv    *served
	regID uint64
}

func newConnState() *connState {
	return &connState{
		events: make(chan interface{}, eventQueueDepth),
		evict:  make(chan struct{}, 1),
		subs:   make(map[uint64]connSub),
	}
}

// respDeferred is the sentinel a handler returns when it already routed its
// real response through the connection's event FIFO (handleResume's
// ack-before-backlog ordering); the writer skips the slot's write.
var respDeferred = &Response{}

// pushFrame enqueues an arbitrary frame (a resume acknowledgment) on the
// event FIFO without blocking; ok reports whether it was accepted. Unlike
// pushEvent an overflow here does not evict — the caller still holds the
// failure path for its request.
func (st *connState) pushFrame(frame interface{}) bool {
	if st.dead.Load() {
		return false
	}
	select {
	case st.events <- frame:
		return true
	default:
		return false
	}
}

// pushEvent enqueues one event frame for the connection's writer without
// blocking. Called from registry emit closures, which run under the registry
// lock on whatever goroutine committed the append — so it must never wait.
// On overflow the connection is evicted instead of dropping the frame: a
// subscriber that cannot keep up would otherwise see a silent gap in a
// stream whose whole point is that every verdict is accounted for. Eviction
// is announced (terminal evicted frames, written by the connection's writer)
// rather than a bare close, so the consumer can resume without guessing.
func (st *connState) pushEvent(ev *Event, conn net.Conn, logf func(string, ...interface{})) {
	if st.dead.Load() {
		return
	}
	select {
	case st.events <- ev:
		st.mu.Lock()
		if st.progress == nil {
			st.progress = make(map[uint64]subProgress)
		}
		st.progress[ev.SubID] = subProgress{seq: ev.Seq, prefix: ev.Prefix}
		st.mu.Unlock()
	default:
		if !st.dead.CompareAndSwap(false, true) {
			return
		}
		if logf != nil {
			logf("wire: %s: subscriber fell %d events behind; evicting", conn.RemoteAddr(), eventQueueDepth)
		}
		select {
		case st.evict <- struct{}{}:
		default:
		}
		// Backstop: if the writer never reaches the evict signal (wedged in a
		// deadline-less write to this very connection), cut the socket out
		// from under it after the grace has clearly been exhausted.
		time.AfterFunc(2*evictGrace, func() { conn.Close() })
	}
}

// evictConn runs on the connection's writer after pushEvent overflowed: no
// new events are being enqueued (dead is set), so the queue is quiescent.
// Deliver it, then one terminal evicted frame per live subscription carrying
// the last enqueued sequence number and prefix, then close. All writes share
// one absolute deadline so a stalled client cannot pin the writer.
func evictConn(conn net.Conn, st *connState) {
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(evictGrace))
	for {
		select {
		case ev := <-st.events:
			if err := WriteFrame(conn, ev); err != nil {
				return
			}
			continue
		default:
		}
		break
	}
	st.mu.Lock()
	type evicted struct {
		id uint64
		p  subProgress
	}
	list := make([]evicted, 0, len(st.subs))
	for id := range st.subs {
		list = append(list, evicted{id: id, p: st.progress[id]})
	}
	st.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].id < list[j].id })
	for _, e := range list {
		frame := &Event{V: Version2, Event: EventEvicted, SubID: e.id, Prefix: e.p.prefix, Seq: e.p.seq}
		if err := WriteFrame(conn, frame); err != nil {
			return
		}
	}
}

// handleHello negotiates the connection's protocol version: the result is
// min(client version, Version2), with feature flags intersected when v2 wins.
// The response's V carries the negotiated version — the one place a v1-shaped
// frame reports something other than the baseline version. The events and
// backfill features are one subscription contract and are granted together:
// a hello that offers only one of them gets neither.
func (s *Server) handleHello(req *Request, st *connState) *Response {
	if req.V < Version {
		return errResponse(fmt.Errorf("%w: %d (want %d or newer)", ErrBadVersion, req.V, Version))
	}
	if st.v2 {
		return errResponse(errors.New("wire: hello already negotiated on this connection"))
	}
	negotiated := req.V
	if negotiated > Version2 {
		negotiated = Version2
	}
	resp := &Response{V: negotiated, OK: true}
	if negotiated >= Version2 {
		st.v2 = true
		var wantEvents, wantBackfill bool
		for _, f := range req.Features {
			switch f {
			case FeatureEvents:
				wantEvents = true
			case FeatureBackfill:
				wantBackfill = true
			}
		}
		if wantEvents && wantBackfill && !s.subsOff.Load() {
			st.subsOK = true
			resp.Features = []string{FeatureEvents, FeatureBackfill}
		}
	}
	return resp
}

// errNoSubs rejects a subscription operation on a connection whose hello was
// not granted the subscription features.
func errNoSubs(op string) *Response {
	return errResponse(fmt.Errorf("wire: %s requires a v2 hello granting the %q and %q features", op, FeatureEvents, FeatureBackfill))
}

// handleSubscribe registers a standing durable top-k query on a live dataset
// and starts pushing per-append event frames to this connection. The
// registration is durable: the response carries its registry key (SubKey)
// and base prefix, and its events carry sequence numbers. A SubKey in the
// request resumes an existing registration from FromPrefix instead of
// creating one; FromPrefix without a SubKey is an error.
func (s *Server) handleSubscribe(req *Request, st *connState, conn net.Conn) *Response {
	if !st.subsOK {
		return errNoSubs(OpSubscribe)
	}
	sv, err := s.lookup(req.Dataset)
	if err != nil {
		return errResponse(err)
	}
	if sv.live == nil {
		return errResponse(fmt.Errorf("wire: dataset %q is not live; standing queries need an append stream", req.Dataset))
	}
	if req.SubKey != 0 {
		return s.handleResume(req, st, sv, conn)
	}
	if req.FromPrefix != 0 {
		return errResponse(errors.New("wire: fromPrefix resumes a subscription and needs its subKey"))
	}
	scorer, err := requestScorer(req, sv)
	if err != nil {
		return errResponse(err)
	}
	spec := sub.Spec{Scorer: scorer, K: req.K, Tau: req.Tau}
	// The anchor selects which verdict stream the subscription receives:
	// look-back is the instant per-append decision, look-ahead the delayed
	// confirmation once a record's forward window closes, and the default is
	// both. Mid-anchored (general) windows have no online counterpart — the
	// monitor cannot decide them until lead has elapsed and confirm them
	// until tau-lead more has — so they are rejected rather than approximated.
	switch req.Anchor {
	case "":
		spec.Decisions, spec.Confirms = true, true
	case "look-back":
		spec.Decisions = true
	case "look-ahead":
		spec.Confirms = true
	default:
		return errResponse(fmt.Errorf("wire: subscribe supports look-back or look-ahead anchors, not %q", req.Anchor))
	}
	if req.Lead != 0 {
		return errResponse(errors.New("wire: subscribe does not support lead (mid-anchored windows have no online verdict)"))
	}
	if req.Start != 0 || req.End != 0 || req.ExplicitInterval {
		spec.Bounded, spec.Start, spec.End = true, req.Start, req.End
	}
	// The persistable scorer recipe makes the registration durable: it
	// survives connection loss (resumable by key) and, on provider-backed
	// datasets, process restarts.
	src := &sub.Source{}
	if len(req.Weights) > 0 {
		src.Weights = append([]float64(nil), req.Weights...)
	} else {
		src.Expr = req.Expr
		src.Names = sv.attrs
	}
	spec.Source = src

	st.mu.Lock()
	st.nextSub++
	id := st.nextSub
	st.mu.Unlock()
	logf := s.logf
	reg := sv.registry()
	// Read before Subscribe, so it can only undershoot the subscription's
	// true base: no event exists at or below an undershot base, hence a
	// consumer resuming "from base" can neither miss nor repeat anything.
	base := reg.Prefix()
	regID, err := reg.Subscribe(spec, func(ev sub.Event) {
		st.pushEvent(subEventFrame(id, ev), conn, logf)
	})
	if err != nil {
		return errResponse(err)
	}
	// A durable registration is acknowledged only once it actually is
	// durable: provider-backed datasets persist the registry to the
	// checkpoint manifest before the response leaves. On failure the
	// registration rolls back — better no subscription than one that
	// silently evaporates on restart.
	if serr := sv.syncSubscriptions(); serr != nil {
		_ = reg.Unsubscribe(regID)
		return errResponse(fmt.Errorf("wire: subscription could not be made durable: %w", serr))
	}
	sv.claimSub(regID, st)
	st.mu.Lock()
	st.subs[id] = connSub{sv: sv, regID: regID}
	st.mu.Unlock()
	return &Response{V: Version, OK: true, SubID: id, SubKey: regID, Base: base}
}

// handleResume splices this connection onto an existing durable
// subscription: every event past req.FromPrefix — discarded while detached,
// lost in flight, queued at the previous connection when it died, or cut by
// the client when its own buffer filled — is re-derived from the committed
// rows and delivered (with its original sequence numbers) before the
// subscription resumes live delivery. The new conn-local id replaces any
// this connection already held for the key.
//
// The acknowledgment goes out ahead of the replay backlog: once the registry
// validates the resume (the ready hook), the ack is enqueued on the event
// FIFO, so on the wire the client sees ack, then backlog, then live events.
// Ack-first is what makes resume converge on a flaky link — the client
// records progress event by event as the backlog arrives, so each retry
// replays only the remainder; were the ack behind the backlog, a connection
// that dies mid-replay would leave the client with nothing and every retry
// would start over (a livelock once the backlog outgrows what the link
// delivers between failures). If the FIFO is momentarily full the ack falls
// back to the ordinary response slot — backlog first, exactly the old
// ordering, which the client demultiplexes just as well.
func (s *Server) handleResume(req *Request, st *connState, sv *served, conn net.Conn) *Response {
	if req.FromPrefix < 0 {
		return errResponse(fmt.Errorf("wire: resume fromPrefix %d must not be negative", req.FromPrefix))
	}
	st.mu.Lock()
	st.nextSub++
	id := st.nextSub
	st.mu.Unlock()
	logf := s.logf
	ackSent := false
	base, err := sv.resumeOwned(req.SubKey, req.FromPrefix, st, func(ev sub.Event) {
		st.pushEvent(subEventFrame(id, ev), conn, logf)
	}, func(base int) {
		ackSent = st.pushFrame(&Response{V: Version, OK: true, SubID: id, SubKey: req.SubKey, Base: base})
	})
	if err != nil {
		return errResponse(err)
	}
	st.mu.Lock()
	st.forgetLocked(sv, req.SubKey)
	st.subs[id] = connSub{sv: sv, regID: req.SubKey}
	st.mu.Unlock()
	if ackSent {
		return respDeferred
	}
	return &Response{V: Version, OK: true, SubID: id, SubKey: req.SubKey, Base: base}
}

// forgetLocked retires every conn-local id this connection holds for
// registration regID of sv. Caller holds st.mu.
func (st *connState) forgetLocked(sv *served, regID uint64) {
	for id, cs := range st.subs {
		if cs.sv == sv && cs.regID == regID {
			delete(st.subs, id)
		}
	}
}

// handleUnsubscribe drops a subscription — really drops it: unsubscribe is
// the client saying "done", as opposed to the implicit detach of a vanishing
// connection. Its final event — the still-pending look-ahead candidates,
// flushed as truncated confirmations — is enqueued by the registry during
// the drop, and the writer flushes queued events before any response, so the
// final event always precedes this acknowledgment. A non-zero SubKey (with
// Dataset) addresses the registration by key, letting a client retire a
// subscription it no longer holds a conn-local id for.
func (s *Server) handleUnsubscribe(req *Request, st *connState) *Response {
	if !st.subsOK {
		return errNoSubs(OpUnsubscribe)
	}
	var cs connSub
	if req.SubKey != 0 {
		sv, err := s.lookup(req.Dataset)
		if err != nil {
			return errResponse(err)
		}
		cs = connSub{sv: sv, regID: req.SubKey}
	} else {
		st.mu.Lock()
		var ok bool
		cs, ok = st.subs[req.SubID]
		st.mu.Unlock()
		if !ok {
			return errResponse(fmt.Errorf("wire: no subscription %d on this connection", req.SubID))
		}
	}
	st.mu.Lock()
	st.forgetLocked(cs.sv, cs.regID)
	st.mu.Unlock()
	reg := cs.sv.loadRegistry()
	if reg == nil {
		return errResponse(fmt.Errorf("wire: %w", sub.ErrNotFound))
	}
	if err := reg.Unsubscribe(cs.regID); err != nil {
		return errResponse(err)
	}
	cs.sv.dropSubOwner(cs.regID)
	if err := cs.sv.syncSubscriptions(); err != nil {
		return errResponse(fmt.Errorf("wire: subscription dropped but not yet durably: %w", err))
	}
	return &Response{V: Version, OK: true, SubID: req.SubID, SubKey: req.SubKey}
}

// unsubscribeAll detaches every subscription of a closing connection: the
// registration stays, sequence numbers keep advancing, and a reconnecting
// consumer resumes by key with the gap replayed. The ownership check inside
// detachIfOwner keeps a stale connection's teardown from severing a
// subscription another connection has since resumed.
func (s *Server) unsubscribeAll(st *connState) {
	st.mu.Lock()
	subs := st.subs
	st.subs = make(map[uint64]connSub)
	st.mu.Unlock()
	for _, cs := range subs {
		cs.sv.detachIfOwner(cs.regID, st)
	}
}

// subEventFrame converts a registry event into its wire frame, stamping the
// connection-local subscription id.
func subEventFrame(id uint64, ev sub.Event) *Event {
	frame := &Event{V: Version2, Event: EventSub, SubID: id, Prefix: ev.Prefix, Seq: ev.Seq}
	if d := ev.Decision; d != nil {
		frame.Decision = &LiveDecision{ID: d.ID, Time: d.Time, Durable: d.Durable, Rank: d.Rank}
	}
	for _, c := range ev.Confirms {
		frame.Confirms = append(frame.Confirms, LiveConfirmation{
			ID: c.ID, Time: c.Time, Durable: c.Durable, Beaten: c.Beaten, Truncated: c.Truncated,
		})
	}
	return frame
}

// AppendRow commits one row into the named live dataset through the server's
// append path, so standing-query subscribers observe rows the embedder feeds
// directly (durserved's server-side ingest stream) exactly like wire appends.
// It deliberately bypasses the SetIngesting lockout — that lockout exists to
// protect this feed from interleaved wire appends, not the other way around.
func (s *Server) AppendRow(name string, t int64, attrs []float64) error {
	sv, err := s.lookup(name)
	if err != nil {
		return err
	}
	if sv.live == nil {
		return fmt.Errorf("wire: dataset %q is not live", name)
	}
	return sv.appendRow(t, attrs, s.logf)
}
