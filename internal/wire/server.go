package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/serve"
	"repro/internal/sub"
)

// LiveIngest is the append surface shared by the live engine
// (core.LiveShardedEngine, of which a core.LiveEngine is the never-sealing
// form) and the crash-safe store: the server ingests wire append batches
// through it. The server ignores the verdict results, which
// those implementations always leave zero; per-append verdicts are
// subscription events.
type LiveIngest interface {
	Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error)
}

// RegistryProvider is implemented by ingestion surfaces that own their
// dataset's standing-query registry and make registrations durable — the
// crash-safe store. When an AddLiveQuerier ingest surface implements it, the
// server uses the provider's registry (so registrations persist through
// checkpoints and survive restarts), replays history through its RowSource,
// feeds no rows itself (the provider observes its own committed appends),
// and withholds subscribe/unsubscribe acknowledgments until
// SyncSubscriptions reports the registration change durable.
type RegistryProvider interface {
	Registry() *sub.Registry
	RowSource() sub.RowSource
	SyncSubscriptions() error
}

// Server hosts durable top-k engines over named datasets and answers wire
// requests. Engines are built once at registration; queries on one engine
// run concurrently. The zero value is not usable; construct with NewServer.
type Server struct {
	logf func(format string, args ...interface{})

	mu     sync.RWMutex
	sets   map[string]*served
	closed bool

	lnMu  sync.Mutex
	lns   map[net.Listener]struct{}
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	// connTimeout (nanoseconds; 0 = none) bounds each read and each write on
	// a connection, so a stalled or vanished client cannot pin a handler
	// goroutine forever.
	connTimeout atomic.Int64
	// draining flips when Close starts: connection loops finish the request
	// in flight (its response is still written), then exit instead of
	// reading the next frame.
	draining atomic.Bool

	// sched, when set, switches connections to pipelined serving: read-only
	// requests are dispatched through the scheduler and evaluate concurrently
	// (bounded by its worker pool) while responses still go out in request
	// order. Nil (the default) handles each request inline on the read loop.
	sched atomic.Pointer[serve.Scheduler]
	// cache, when set, is consulted before evaluating query and most-durable
	// requests.
	cache atomic.Pointer[serve.Cache]

	// subsOff withholds the subscription features from hello negotiation,
	// so clients cannot subscribe (durserved makes standing queries an
	// operator opt-in). Protocol v2 itself still negotiates; only the
	// features are denied. Default off: embedders get subscriptions without ceremony.
	subsOff atomic.Bool
}

type served struct {
	eng   core.Querier
	attrs []string
	// live is the ingestion surface of a dataset registered with
	// AddLiveQuerier; nil for static datasets.
	live LiveIngest
	// ingesting marks a live dataset currently fed by a server-side stream
	// (durserved -ingest); wire appends are rejected while it is set, since
	// an external producer interleaving its own (later) timestamps would
	// make the stream's next record non-increasing and kill the feed. The
	// lockout is advisory against appends already in flight when the flag
	// flips (checked before each row, not atomically with it); set it
	// before serving connections for a hard guarantee.
	ingesting atomic.Bool

	// appendMu serializes committed appends with the subscription registry's
	// observation of them: an append and its Observe form one atomic step, so
	// every subscriber event names the exact committed prefix it describes
	// and monitors never see rows out of order. Wire appends from concurrent
	// connections contend here only per dataset; the engines serialize
	// internally anyway (strictly increasing timestamps).
	appendMu sync.Mutex
	// subReg is the dataset's standing-query registry, created lazily on the
	// first subscribe (under appendMu, so its starting prefix is exact).
	subReg atomic.Pointer[sub.Registry]
	// provider, when non-nil, supplies the registry instead (see
	// RegistryProvider): the ingest surface owns it, persists registrations
	// and observes its own committed appends, so appendRow must not.
	provider RegistryProvider

	// subOwners maps a registry subscription key to the connection currently
	// attached to it. A subscription outlives connections; on conn
	// teardown it is detached (not dropped) — but only by its current owner,
	// so a stale connection dying after another one resumed the subscription
	// cannot sever the new consumer.
	ownMu     sync.Mutex
	subOwners map[uint64]*connState

	// exprCache memoizes compiled scoring expressions by source text.
	// Dimensionality and attribute names — the other compile inputs — are
	// fixed per served dataset, so the source alone keys the cache; a busy
	// client re-sending the same expression skips the parse + analysis on
	// every query. Bounded by clearing: past maxExprCache distinct sources
	// the map resets, which is simpler than LRU bookkeeping and costs at
	// worst one recompile per entry per cycle.
	exprMu    sync.Mutex
	exprCache map[string]*expr.Expr
}

// maxExprCache bounds each dataset's compiled-expression cache.
const maxExprCache = 256

// appendRow commits one row and, atomically with the commit, feeds it to the
// dataset's standing-query registry so subscriber events carry the exact
// committed prefix. All committed appends — wire batches and the embedder's
// Server.AppendRow — funnel through here.
func (sv *served) appendRow(t int64, attrs []float64, logf func(string, ...interface{})) error {
	sv.appendMu.Lock()
	defer sv.appendMu.Unlock()
	if _, _, err := sv.live.Append(t, attrs); err != nil {
		return err
	}
	// Provider-backed datasets observe their own committed appends (after
	// the WAL commit, so subscribers never see a row a crash could lose);
	// feeding the registry here would double-observe every row.
	if sv.provider == nil {
		if reg := sv.subReg.Load(); reg != nil {
			if oerr := reg.Observe(t, attrs); oerr != nil && logf != nil {
				// Unreachable while appends stay strictly increasing (the engine
				// just accepted the row); surfaced rather than swallowed so a
				// registry bug cannot silently starve subscribers.
				logf("wire: subscription registry: %v", oerr)
			}
		}
	}
	return nil
}

// registry returns the dataset's standing-query registry, creating it on
// first use. Creation holds appendMu so the registry's starting prefix is
// the exact committed row count — no append can land between the count and
// the registry's attachment.
func (sv *served) registry() *sub.Registry {
	if sv.provider != nil {
		return sv.provider.Registry()
	}
	if r := sv.subReg.Load(); r != nil {
		return r
	}
	sv.appendMu.Lock()
	defer sv.appendMu.Unlock()
	if r := sv.subReg.Load(); r != nil {
		return r
	}
	r := sub.NewRegistry(sv.eng.Dataset().Len())
	sv.subReg.Store(r)
	return r
}

// loadRegistry returns the dataset's registry if one exists, without
// creating it — the teardown paths' flavor.
func (sv *served) loadRegistry() *sub.Registry {
	if sv.provider != nil {
		return sv.provider.Registry()
	}
	return sv.subReg.Load()
}

// rowSource replays committed rows for a resume: the provider's
// (WAL-committed rows only) when one is installed, otherwise the engine's
// append-stable dataset view.
func (sv *served) rowSource() sub.RowSource {
	if sv.provider != nil {
		return sv.provider.RowSource()
	}
	return func(lo, hi int, observe func(t int64, attrs []float64) error) error {
		ds := sv.eng.Dataset()
		if hi > ds.Len() {
			return fmt.Errorf("wire: row source asked for [%d,%d) of %d committed rows", lo, hi, ds.Len())
		}
		for i := lo; i < hi; i++ {
			if err := observe(ds.Time(i), ds.Attrs(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// syncSubscriptions makes a registration change durable before it is
// acknowledged; a no-op for in-memory registries.
func (sv *served) syncSubscriptions() error {
	if sv.provider == nil {
		return nil
	}
	return sv.provider.SyncSubscriptions()
}

// claimSub records st as the connection currently attached to registry
// subscription key regID. Used when the subscription is first created, so no
// competing resume can exist yet (the key has not been disclosed).
func (sv *served) claimSub(regID uint64, st *connState) {
	sv.ownMu.Lock()
	if sv.subOwners == nil {
		sv.subOwners = make(map[uint64]*connState)
	}
	sv.subOwners[regID] = st
	sv.ownMu.Unlock()
}

// resumeOwned reattaches st to subscription regID, replaying missed
// events past fromPrefix, and transfers ownership to st. The registry call
// happens under ownMu so it cannot interleave with a stale owner's
// detachIfOwner — lock order is always ownMu → registry lock. ready fires
// once the resume is certain to succeed, before the backlog is emitted (see
// Registry.ResumeNotify); handleResume acks through it so the client learns
// its subscription id ahead of a possibly long replay.
func (sv *served) resumeOwned(regID uint64, fromPrefix int, st *connState, emit sub.Emit, ready func(base int)) (int, error) {
	reg := sv.loadRegistry()
	if reg == nil {
		return 0, sub.ErrNotFound
	}
	sv.ownMu.Lock()
	defer sv.ownMu.Unlock()
	base, err := reg.ResumeNotify(regID, fromPrefix, emit, sv.rowSource(), ready)
	if err != nil {
		return 0, err
	}
	if sv.subOwners == nil {
		sv.subOwners = make(map[uint64]*connState)
	}
	sv.subOwners[regID] = st
	return base, nil
}

// detachIfOwner detaches subscription regID — discarding events until
// a Resume — but only if st is still its owner. Holding ownMu across the
// Detach means a connection that resumed the subscription concurrently (and
// took ownership) can never have its freshly attached emitter severed by the
// stale connection's teardown.
func (sv *served) detachIfOwner(regID uint64, st *connState) {
	sv.ownMu.Lock()
	defer sv.ownMu.Unlock()
	if sv.subOwners[regID] != st {
		return
	}
	delete(sv.subOwners, regID)
	if reg := sv.loadRegistry(); reg != nil {
		_ = reg.Detach(regID)
	}
}

// dropSubOwner unconditionally forgets regID's owner — the unsubscribe paths,
// where the registration itself is being dropped.
func (sv *served) dropSubOwner(regID uint64) {
	sv.ownMu.Lock()
	delete(sv.subOwners, regID)
	sv.ownMu.Unlock()
}

// compileExpr returns the compiled form of src, memoized per dataset.
// Compilation errors are not cached: they are cheap to reproduce (parsing
// fails early) and caching them would let junk sources evict useful entries.
func (sv *served) compileExpr(src string, dims int) (*expr.Expr, error) {
	sv.exprMu.Lock()
	defer sv.exprMu.Unlock()
	if e, ok := sv.exprCache[src]; ok {
		return e, nil
	}
	e, err := expr.Compile(src, expr.Options{Dims: dims, Names: sv.attrs})
	if err != nil {
		return nil, err
	}
	if len(sv.exprCache) >= maxExprCache {
		sv.exprCache = nil
	}
	if sv.exprCache == nil {
		sv.exprCache = make(map[string]*expr.Expr)
	}
	sv.exprCache[src] = e
	return e, nil
}

// NewServer returns an empty server. logf (nil = log.Printf) receives
// per-connection protocol errors; request errors are reported to clients,
// not logged.
func NewServer(logf func(format string, args ...interface{})) *Server {
	if logf == nil {
		logf = log.Printf
	}
	return &Server{
		logf:  logf,
		sets:  make(map[string]*served),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// SetConnTimeout bounds each frame read and each response write on every
// connection (zero disables, the default). An idle client is disconnected
// after d without a request; a client that stops draining responses is
// disconnected after its write stalls for d. Applies to connections accepted
// after the call.
func (s *Server) SetConnTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s.connTimeout.Store(int64(d))
}

// SetScheduler installs the admission scheduler that enables pipelined
// serving: each connection's read-only requests (query, explain,
// most-durable) evaluate concurrently — across requests of one connection and
// across connections — bounded by the scheduler's worker pool, while
// responses are still written in request order per connection. Appends keep
// executing in arrival order on the connection's read loop, so an
// append-then-query sequence on one connection always queries the appended
// state. A nil scheduler handles every request inline, one at a time. Applies
// to connections accepted after the call.
func (s *Server) SetScheduler(sched *serve.Scheduler) { s.sched.Store(sched) }

// SetSubscriptions enables or disables standing-query serving: when off, the
// subscription features are withheld during hello negotiation, so subscribe
// requests are rejected with a clear error while every other v1 and v2
// operation works unchanged. On by default; durserved turns it off unless
// started with -subscriptions. Applies to hellos negotiated after the call.
func (s *Server) SetSubscriptions(on bool) { s.subsOff.Store(!on) }

// SetCache installs the shared result cache: query and most-durable responses
// are replayed verbatim for exact-match repeats at an unchanged data epoch. A
// nil cache disables it for subsequent requests. Safe to call while serving.
func (s *Server) SetCache(c *serve.Cache) { s.cache.Store(c) }

// epochSequenced is implemented by engines whose query state changes over
// time; EpochSeq ticks on every mutation. Static engines do not implement it
// and are treated as epoch 0 forever — correct, since they never change.
type epochSequenced interface{ EpochSeq() uint64 }

// epochOf returns eng's current query epoch (0 for immutable engines).
func epochOf(eng core.Querier) uint64 {
	if e, ok := eng.(epochSequenced); ok {
		return e.EpochSeq()
	}
	return 0
}

// AddQuerier registers a static engine (built by durable.Open) under name.
// attrs optionally names the dataset's attribute columns for use in scoring
// expressions; it may be nil (positional x0, x1, … always work).
func (s *Server) AddQuerier(name string, eng core.Querier, attrs []string) error {
	return s.addEntry(name, eng.Dataset(), attrs, func() *served {
		return &served{eng: eng, attrs: attrs}
	})
}

// AddLiveQuerier registers a live engine under name: queries answer from eng
// while wire appends route through ingest. For a plain live engine both are
// the engine itself; a crash-safe store passes its engine and itself, so
// every appended row is write-ahead logged before the engine applies it.
// Queries serve whatever has been ingested so far, exactly as a batch engine
// over the same records would answer them.
func (s *Server) AddLiveQuerier(name string, eng core.Querier, ingest LiveIngest, attrs []string) error {
	if ingest == nil {
		return errors.New("wire: AddLiveQuerier needs a non-nil ingest surface")
	}
	// The entry is inserted fully initialized (live set before publication),
	// so a concurrent append can never observe a registered-but-not-live
	// window.
	return s.addEntry(name, eng.Dataset(), attrs, func() *served {
		sv := &served{eng: eng, attrs: attrs, live: ingest}
		// An ingest surface that owns a durable registry (the crash-safe
		// store) takes over standing-query state for this dataset.
		sv.provider, _ = ingest.(RegistryProvider)
		return sv
	})
}

func (s *Server) addEntry(name string, ds *data.Dataset, attrs []string, build func() *served) error {
	if name == "" {
		return errors.New("wire: dataset name must not be empty")
	}
	if attrs != nil && len(attrs) != ds.Dims() {
		return fmt.Errorf("wire: %d attribute names for %d dimensions", len(attrs), ds.Dims())
	}
	// Validate names eagerly so registration, not the first query, fails.
	if _, err := expr.Compile("1", expr.Options{Dims: ds.Dims(), Names: attrs}); err != nil {
		return fmt.Errorf("wire: attribute names: %w", err)
	}
	// Reject duplicates before building: index construction (especially
	// per-shard) is far too expensive to discard. The name is re-checked
	// under the same lock that inserts it, so concurrent registrations of
	// one name still resolve to a single winner.
	s.mu.Lock()
	_, dup := s.sets[name]
	s.mu.Unlock()
	if dup {
		return fmt.Errorf("wire: dataset %q already registered", name)
	}
	sv := build()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.sets[name]; dup {
		return fmt.Errorf("wire: dataset %q already registered", name)
	}
	s.sets[name] = sv
	return nil
}

// Serve accepts connections on ln until the listener or server closes.
// It always returns a non-nil error (net.ErrClosed after Close).
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return net.ErrClosed
	}
	s.lns[ln] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.lns, ln)
		s.lnMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.ServeConn(conn)
		}()
	}
}

// Close stops all listeners and shuts down gracefully: connections finish
// (and get the response for) the request they are handling, but no further
// requests are read. Idle connections — blocked waiting for a client frame —
// are unblocked immediately rather than waited on.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.lnMu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	for conn := range s.conns {
		// Expire pending reads so idle connection loops wake up and see the
		// draining flag. In-flight handlers are untouched: their response
		// write carries its own deadline and still completes.
		conn.SetReadDeadline(time.Now())
	}
	s.lnMu.Unlock()
	s.wg.Wait()
	return nil
}

// ServeConn answers requests on one connection until EOF, a protocol error,
// a deadline (SetConnTimeout) or server shutdown; it closes conn before
// returning. Responses go out in request order; with a scheduler installed
// (SetScheduler) read-only requests evaluate concurrently, otherwise each
// request is handled inline on the read loop. Exported so tests and embedders
// can drive the protocol over net.Pipe.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	s.serveConnPipelined(conn, s.sched.Load(), newConnState())
}

// armRead prepares one frame read: it applies the current connection timeout
// and checks for shutdown, reporting whether the caller should proceed with
// the read. The timeout is re-loaded every iteration — a SetConnTimeout
// during a long-lived connection takes effect at its next frame, not only on
// new connections — and a failed SetReadDeadline (the fd already dead) drops
// the connection instead of silently reading without a bound. The deadline is
// set before the draining check: if Close lands between the two, its
// SetReadDeadline(now) overrides this one and the read returns immediately,
// so shutdown never waits out a full idle timeout.
func (s *Server) armRead(conn net.Conn) bool {
	timeout := time.Duration(s.connTimeout.Load())
	var err error
	if timeout > 0 {
		err = conn.SetReadDeadline(time.Now().Add(timeout))
	} else {
		// Clear any deadline from a previous iteration so lowering the
		// timeout to zero mid-connection does not leave a stale expiry armed.
		err = conn.SetReadDeadline(time.Time{})
	}
	if err != nil {
		s.logf("wire: %s: set read deadline: %v", conn.RemoteAddr(), err)
		return false
	}
	return !s.draining.Load()
}

// logReadErr reports a failed frame read, distinguishing clean closes and
// shutdown-induced deadline expiries from genuine client failures.
func (s *Server) logReadErr(conn net.Conn, err error) {
	switch {
	case errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF):
	case s.draining.Load():
		// Shutdown expired the deadline; not a client failure.
	case isTimeout(err):
		s.logf("wire: %s: closing idle connection after %v",
			conn.RemoteAddr(), time.Duration(s.connTimeout.Load()))
	default:
		s.logf("wire: %s: read: %v", conn.RemoteAddr(), err)
	}
}

// pipelineDepth bounds how many responses may be pending per connection; a
// client that pipelines faster than the server evaluates blocks in its writes
// once the window fills, instead of growing an unbounded queue server-side.
const pipelineDepth = 32

// concurrentOp reports whether op may evaluate off the connection's read
// loop. Read-only operations qualify: they run against immutable epoch
// snapshots, so any interleaving with appends yields some valid serial order.
// Appends do not — their effects must land in arrival order (timestamps are
// strictly increasing) and be visible to every later request on the same
// connection, which handling them inline on the read loop guarantees.
func concurrentOp(op string) bool {
	switch op {
	case OpQuery, OpExplain, OpMostDurable:
		return true
	}
	return false
}

// serveConnPipelined runs the concurrent per-connection protocol: the read
// loop parses frames and dispatches read-only requests through sched to
// evaluate in parallel, while a writer goroutine drains a FIFO of response
// slots so responses leave in exactly the order their requests arrived — the
// protocol's one-response-per-request-in-order contract is preserved, clients
// cannot tell the difference (except in latency).
//
// The same writer also delivers server-initiated event frames (protocol v2):
// events from st.events interleave with responses at frame granularity.
// Events have no ordering contract against responses except one the teardown
// paths rely on: events enqueued by a request's handler are flushed before
// that request's response (so an unsubscribe's final truncated confirmations
// precede its acknowledgment). With sched == nil every request is handled
// inline on the read loop, one at a time; the writer still pushes events while
// the read loop blocks on the next frame.
//
// Backpressure: at most pipelineDepth responses may be outstanding; the
// scheduler additionally bounds how many evaluate at once, with admission
// itself bounded by the connection timeout — a saturated server answers
// "transient: retry" instead of queueing without limit. Subscribers that
// stop draining their TCP window stall the writer and are disconnected by
// the write deadline (SetConnTimeout) or, if their event queue overflows
// first, by the slow-subscriber eviction in pushEvent.
func (s *Server) serveConnPipelined(conn net.Conn, sched *serve.Scheduler, st *connState) {
	type slot chan *Response
	slots := make(chan slot, pipelineDepth)
	writeFailed := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var fw frameWriter
		write := func(v interface{}) bool {
			resp, isResp := v.(*Response)
			var payload []byte
			var err error
			if isResp && resp.payload != nil {
				// Encoded by its handler: a cache hit is this one write.
				payload = resp.payload
			} else {
				payload, err = encodeFrame(v)
			}
			if err != nil && isResp {
				// The answer cannot travel; its request still gets exactly one
				// response, naming why, and the connection lives on.
				payload, err = encodeFrame(errResponse(unsendable(err)))
			}
			if err != nil {
				s.logf("wire: %s: encode: %v", conn.RemoteAddr(), err)
				return false
			}
			if timeout := time.Duration(s.connTimeout.Load()); timeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(timeout))
			}
			if err := fw.write(conn, payload); err != nil {
				s.logf("wire: %s: write: %v", conn.RemoteAddr(), err)
				return false
			}
			return true
		}
		// flushEvents forwards every queued event without blocking.
		flushEvents := func() bool {
			for {
				select {
				case ev := <-st.events:
					if !write(ev) {
						return false
					}
				default:
					return true
				}
			}
		}
		fail := func() {
			st.dead.Store(true)
			close(writeFailed)
			// A client waiting for a response that will never come sees the
			// connection end instead of waiting forever; the read loop wakes
			// from its read and finishes.
			conn.Close()
			// Keep draining so in-flight handlers can deliver into their
			// slots and exit; the frames are discarded, the client is gone.
			for sl := range slots {
				<-sl
			}
		}
		for {
			select {
			case <-st.evict:
				// Slow-subscriber eviction (pushEvent overflowed): drain what
				// is queued, write each subscription's terminal evicted frame,
				// close the connection. fail() then releases any in-flight
				// handlers into their buffered slots.
				evictConn(conn, st)
				fail()
				return
			case ev := <-st.events:
				if !write(ev) {
					fail()
					return
				}
			case sl, ok := <-slots:
				if !ok {
					// Read loop ended and every response is out; flush the
					// events still queued before the connection closes.
					flushEvents()
					return
				}
				resp := (*Response)(nil)
				for resp == nil {
					select {
					case resp = <-sl:
					case <-st.evict:
						evictConn(conn, st)
						fail()
						return
					case ev := <-st.events:
						// Keep events flowing while a slow handler computes.
						if !write(ev) {
							fail()
							return
						}
					}
				}
				// Events enqueued by this request's handler go first. A
				// deferred response already rode the event FIFO (resume's
				// ack-before-backlog); only the flush remains.
				if !flushEvents() {
					fail()
					return
				}
				if resp != respDeferred && !write(resp) {
					fail()
					return
				}
			}
		}
	}()

	for {
		if !s.armRead(conn) {
			break
		}
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			s.logReadErr(conn, err)
			break
		}
		sl := make(slot, 1)
		select {
		case slots <- sl:
		case <-writeFailed:
			// The writer is gone; nothing can answer this request.
			goto done
		}
		if st.v2 && req.V == Version2 {
			// The connection negotiated v2; its frames pass the common
			// handlers' version check as the baseline version.
			req.V = Version
		}
		switch {
		case req.Op == OpHello:
			sl <- s.handleHello(&req, st)
			continue
		case req.Op == OpSubscribe:
			sl <- s.handleSubscribe(&req, st, conn)
			continue
		case req.Op == OpUnsubscribe:
			sl <- s.handleUnsubscribe(&req, st)
			continue
		case sched == nil || !concurrentOp(req.Op):
			// Appends (and ping/datasets, too cheap to dispatch) run inline:
			// by the time the next frame is read, their effects are visible.
			sl <- s.handle(&req)
			continue
		}
		// req is declared inside the loop body, so the handler goroutine
		// captures this iteration's frame, not a shared variable.
		go func() {
			ctx := context.Background()
			if timeout := time.Duration(s.connTimeout.Load()); timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, timeout)
				defer cancel()
			}
			err := sched.Do(ctx, func() { sl <- s.handle(&req) })
			if err != nil {
				// Slot already reserved, so the ordering contract holds even
				// for rejections. Admission timeouts are transient: the pool
				// drains, retrying verbatim is correct.
				sl <- &Response{V: Version, Error: "wire: server overloaded: " + err.Error(),
					Transient: errors.Is(err, ctx.Err())}
			}
		}()
	}
done:
	// Detach this connection's subscriptions before the writer shuts down;
	// the events already queued are still flushed by the writer's close path.
	s.unsubscribeAll(st)
	close(slots)
	wg.Wait()
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func errResponse(err error) *Response {
	return &Response{V: Version, Error: err.Error()}
}

// unsendable names why encodeFrame refused an answer: its size, or a value
// JSON cannot carry — in a Response, only a ±Inf or NaN score is one. Any
// other cause keeps the encoder's own words.
func unsendable(err error) error {
	var unsupported *json.UnsupportedValueError
	switch {
	case errors.Is(err, ErrFrameTooLarge):
		return fmt.Errorf("wire: answer exceeds the frame limit (%v)", err)
	case errors.As(err, &unsupported):
		return fmt.Errorf("wire: record score is not finite (%v)", err)
	}
	return err
}

func (s *Server) handle(req *Request) *Response {
	if req.V != Version {
		return errResponse(fmt.Errorf("%w: %d (want %d)", ErrBadVersion, req.V, Version))
	}
	switch req.Op {
	case OpPing:
		return &Response{V: Version, OK: true}
	case OpDatasets:
		return s.handleDatasets()
	case OpQuery:
		return s.handleQuery(req)
	case OpExplain:
		return s.handleExplain(req)
	case OpMostDurable:
		return s.handleMostDurable(req)
	case OpAppend:
		return s.handleAppend(req)
	case OpSubscribe, OpUnsubscribe:
		// Reachable only on connections that never negotiated v2 (the v2 read
		// loop intercepts these before handle). The version check above
		// already caught v2-stamped frames; this catches v1-stamped ones.
		return errResponse(fmt.Errorf("wire: %s requires protocol v2 (send hello first)", req.Op))
	case OpHello:
		// Hello is intercepted by every connection loop; a frame reaching the
		// common handler means an embedder called handle directly.
		return errResponse(errors.New("wire: hello must be the subject of its own connection handshake"))
	default:
		return errResponse(fmt.Errorf("wire: unknown op %q", req.Op))
	}
}

func (s *Server) handleDatasets() *Response {
	s.mu.RLock()
	defer s.mu.RUnlock()
	resp := &Response{V: Version, OK: true}
	names := make([]string, 0, len(s.sets))
	for name := range s.sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sv := s.sets[name]
		ds := sv.eng.Dataset()
		lo, hi := ds.Span()
		// Discovered by capability, like epochSequenced: a Querier that
		// decorates a sharded engine reports its shards by forwarding NumShards.
		shards := 0
		if eng, ok := sv.eng.(interface{ NumShards() int }); ok {
			shards = eng.NumShards()
		}
		resp.Datasets = append(resp.Datasets, DatasetInfo{
			Name: name, Len: ds.Len(), Dims: ds.Dims(),
			Start: lo, End: hi, Attrs: sv.attrs, Live: sv.live != nil,
			Shards: shards,
		})
	}
	return resp
}

// lookup resolves the served dataset of a request.
func (s *Server) lookup(name string) (*served, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sv, ok := s.sets[name]
	if !ok {
		return nil, fmt.Errorf("wire: unknown dataset %q", name)
	}
	return sv, nil
}

// buildQuery translates the request into a core.Query against sv.
func buildQuery(req *Request, sv *served) (core.Query, error) {
	var q core.Query
	ds := sv.eng.Dataset()
	scorer, err := requestScorer(req, sv)
	if err != nil {
		return q, err
	}
	alg := core.Auto
	if req.Algorithm != "" && req.Algorithm != "auto" {
		alg, err = core.ParseAlgorithm(req.Algorithm)
		if err != nil {
			return q, err
		}
	}
	anchor := core.LookBack
	switch req.Anchor {
	case "", "look-back":
	case "look-ahead":
		anchor = core.LookAhead
	case "general":
		anchor = core.General
	default:
		return q, fmt.Errorf("wire: unknown anchor %q", req.Anchor)
	}
	start, end := req.Start, req.End
	if start == 0 && end == 0 && !req.ExplicitInterval {
		// Legacy whole-span default. Clients that really mean the point
		// interval [0,0] — addressable on datasets starting at time 0 — set
		// ExplicitInterval to suppress the rewrite.
		start, end = ds.Span()
	}
	return core.Query{
		K: req.K, Tau: req.Tau, Lead: req.Lead, Start: start, End: end,
		Scorer: scorer, Algorithm: alg, Anchor: anchor,
		WithDurations: req.WithDurations,
	}, nil
}

// requestScorer resolves the request's scoring function.
func requestScorer(req *Request, sv *served) (score.Scorer, error) {
	ds := sv.eng.Dataset()
	switch {
	case len(req.Weights) > 0 && req.Expr != "":
		return nil, errors.New("wire: weights and expr are mutually exclusive")
	case len(req.Weights) > 0:
		return score.NewLinear(req.Weights)
	case req.Expr != "":
		return sv.compileExpr(req.Expr, ds.Dims())
	default:
		return nil, errors.New("wire: query needs weights or expr")
	}
}

// resultKey derives the whole-result cache key of a query-shaped request, or
// ok=false when the request is uncacheable (no canonical scorer form). The
// caller supplies the epoch it read before consulting the cache.
func resultKey(req *Request, q core.Query, epoch uint64) (serve.ResultKey, bool) {
	sk, ok := score.CanonicalKey(q.Scorer)
	if !ok {
		return serve.ResultKey{}, false
	}
	return serve.ResultKey{
		Dataset: req.Dataset, Op: req.Op, Scorer: sk,
		K: q.K, N: req.N, Tau: q.Tau, Lead: q.Lead,
		Start: q.Start, End: q.End,
		Anchor: q.Anchor, Algorithm: q.Algorithm,
		WithDurations: q.WithDurations, Epoch: epoch,
	}, true
}

func (s *Server) handleQuery(req *Request) *Response {
	sv, err := s.lookup(req.Dataset)
	if err != nil {
		return errResponse(err)
	}
	q, err := buildQuery(req, sv)
	if err != nil {
		return errResponse(err)
	}
	return s.answerCached(sv, func(epoch uint64) (serve.ResultKey, bool) {
		return resultKey(req, q, epoch)
	}, func() *Response {
		res, err := sv.eng.DurableTopK(q)
		if err != nil {
			return errResponse(err)
		}
		resp := &Response{V: Version, OK: true, Stats: &Stats{
			Algorithm:      res.Stats.Algorithm.String(),
			CheckQueries:   res.Stats.CheckQueries,
			FindQueries:    res.Stats.FindQueries,
			MaintQueries:   res.Stats.MaintQueries,
			CandidateCount: res.Stats.CandidateCount,
			Visited:        res.Stats.Visited,
			ShardsPruned:   res.Stats.ShardsPruned,
			ElapsedMicros:  res.Stats.Elapsed.Microseconds(),
		}}
		resp.Records = make([]Record, 0, len(res.Records))
		for _, r := range res.Records {
			resp.Records = append(resp.Records, Record{
				ID: r.ID, Time: r.Time, Score: r.Score,
				MaxDuration: r.MaxDuration, FullHistory: r.FullHistory,
			})
		}
		return resp
	})
}

// answerCached answers a query-shaped request through the whole-result
// cache: key derives the request's cache key at a data epoch (ok=false:
// uncacheable), eval computes the answer. An exact-match repeat at an
// unchanged epoch replays the stored payload with no engine work and no
// encoding. Otherwise the answer is encoded here, on the handler goroutine,
// and that same payload is stored and sent. The epoch is read before the
// lookup and re-checked after evaluation; a store happens only when it did
// not move, so an entry can never carry an answer from a newer state than
// its key claims. An answer that cannot be sent — a non-finite score, a
// payload over MaxFrame — becomes the error response naming why and is never
// stored.
func (s *Server) answerCached(sv *served, key func(epoch uint64) (serve.ResultKey, bool), eval func() *Response) *Response {
	var (
		cache = s.cache.Load()
		rk    serve.ResultKey
		epoch uint64
		keyed bool
	)
	if cache != nil {
		epoch = epochOf(sv.eng)
		if rk, keyed = key(epoch); keyed {
			if v, ok := cache.GetResult(rk); ok {
				return &Response{payload: v.([]byte)}
			}
		}
	}
	resp := eval()
	if !resp.OK {
		return resp
	}
	payload, err := encodeFrame(resp)
	if err != nil {
		return errResponse(unsendable(err))
	}
	resp.payload = payload
	if keyed && epochOf(sv.eng) == epoch {
		cache.PutResult(rk, payload)
	}
	return resp
}

func (s *Server) handleExplain(req *Request) *Response {
	sv, err := s.lookup(req.Dataset)
	if err != nil {
		return errResponse(err)
	}
	q, err := buildQuery(req, sv)
	if err != nil {
		return errResponse(err)
	}
	plan, err := sv.eng.Explain(q)
	if err != nil {
		return errResponse(err)
	}
	return &Response{V: Version, OK: true, Plan: plan.String()}
}

// SetIngesting marks (on) or clears (off) the named live dataset as being
// fed by a server-side ingest stream. While marked, wire append requests to
// it are rejected; queries are unaffected. Returns an error for unknown or
// non-live datasets.
func (s *Server) SetIngesting(name string, on bool) error {
	sv, err := s.lookup(name)
	if err != nil {
		return err
	}
	if sv.live == nil {
		return fmt.Errorf("wire: dataset %q is not live", name)
	}
	sv.ingesting.Store(on)
	return nil
}

// handleAppend ingests a batch of rows into a live dataset. Rows commit in
// order until the first invalid one; the response reports how many committed
// (so a partially rejected batch is visible to the producer) alongside the
// error. Per-append verdicts are subscription events, not part of the
// response.
func (s *Server) handleAppend(req *Request) *Response {
	sv, err := s.lookup(req.Dataset)
	if err != nil {
		return errResponse(err)
	}
	if sv.live == nil {
		return errResponse(fmt.Errorf("wire: dataset %q is not live (register it with AddLiveQuerier to ingest)", req.Dataset))
	}
	if len(req.Rows) == 0 {
		return errResponse(errors.New("wire: append needs at least one row"))
	}
	resp := &Response{V: Version, OK: true}
	for _, row := range req.Rows {
		// Re-checked per row so a SetIngesting(true) that lands mid-batch
		// stops the batch at the next row. The lockout is still advisory
		// for rows already past the check (see the ingesting field's doc);
		// embedders that need a hard cut-over drain in-flight appends
		// before starting a feed, as durserved does by setting the flag
		// before serving.
		if sv.ingesting.Load() {
			resp.OK = false
			resp.Error = fmt.Sprintf("wire: dataset %q is being fed by a server-side ingest stream; appends are rejected until it drains", req.Dataset)
			resp.Transient = true // the feed drains; retrying is correct
			break
		}
		if err := sv.appendRow(row.Time, row.Attrs, s.logf); err != nil {
			resp.OK = false
			resp.Error = err.Error()
			break
		}
		resp.Appended++
	}
	return resp
}

// handleMostDurable answers the "stood the test of time" report: the N
// records with the largest maximum durability for the requested k, scorer
// and anchor. Mid-anchored windows have no duration notion and are
// rejected.
func (s *Server) handleMostDurable(req *Request) *Response {
	sv, err := s.lookup(req.Dataset)
	if err != nil {
		return errResponse(err)
	}
	scorer, err := requestScorer(req, sv)
	if err != nil {
		return errResponse(err)
	}
	anchor := core.LookBack
	switch req.Anchor {
	case "", "look-back":
	case "look-ahead":
		anchor = core.LookAhead
	default:
		return errResponse(fmt.Errorf("wire: most-durable supports look-back or look-ahead, not %q", req.Anchor))
	}
	if req.N < 1 {
		return errResponse(errors.New("wire: most-durable needs n >= 1"))
	}
	// Same cached path as handleQuery; most-durable is the more expensive
	// report (a full durability profile), so repeats benefit most.
	return s.answerCached(sv, func(epoch uint64) (serve.ResultKey, bool) {
		sk, ok := score.CanonicalKey(scorer)
		return serve.ResultKey{Dataset: req.Dataset, Op: req.Op, Scorer: sk,
			K: req.K, N: req.N, Anchor: anchor, Epoch: epoch}, ok
	}, func() *Response {
		top, err := sv.eng.MostDurable(req.K, scorer, anchor, req.N)
		if err != nil {
			return errResponse(err)
		}
		resp := &Response{V: Version, OK: true}
		for _, r := range top {
			resp.Records = append(resp.Records, Record{
				ID: r.ID, Time: r.Time, Score: r.Score,
				MaxDuration: r.Duration, FullHistory: r.FullHistory,
			})
		}
		return resp
	})
}
