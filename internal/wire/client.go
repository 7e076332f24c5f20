package wire

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrIndeterminate wraps a transport-level append failure: the connection
// died before a response frame arrived, so the server may or may not have
// applied some of the in-flight rows. AppendRetry stops rather than re-send
// through it — see its doc for how callers reconcile and resume.
var ErrIndeterminate = errors.New("wire: append outcome indeterminate")

// Client speaks the wire protocol over one connection. Method calls are
// serialized (one in-flight request per connection); open several clients
// for parallelism. Safe for concurrent use.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	retries atomic.Int64

	// Protocol v2 session state (see client_v2.go). All nil/zero until Hello
	// negotiates v2; the v1 request path never touches it. respCh non-nil is
	// the "reader goroutine owns the connection's read side" signal: Do then
	// receives its response from the demultiplexer instead of the socket.
	respCh   chan *Response
	readDone chan struct{}
	features []string

	subMu   sync.Mutex
	subs    map[uint64]*Subscription
	pending map[uint64][]Event // early events for a subscribe still in flight
	maxSub  uint64
	readErr error
}

// Dial connects to a durable top-k server at addr (host:port).
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// RetryPolicy bounds the retry loops of DialRetry and Client.AppendRetry:
// capped exponential backoff with jitter, limited by both an attempt count
// and an overall time budget. The zero value means the defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, first included (default 5).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms); each
	// further retry doubles it up to MaxDelay (default 1s). The actual sleep
	// is jittered uniformly over [delay/2, delay) so synchronized clients
	// spread out.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// MaxElapsed, when positive, stops retrying once the loop has run this
	// long, regardless of attempts left.
	MaxElapsed time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// sleep backs off one step and returns the doubled (capped) next delay.
func (p RetryPolicy) sleep(delay time.Duration) time.Duration {
	d := delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
	time.Sleep(d)
	if delay *= 2; delay > p.MaxDelay {
		delay = p.MaxDelay
	}
	return delay
}

// IsTransient reports whether err is worth retrying: a server rejection
// marked transient (e.g. a live dataset locked by a draining ingest stream),
// a network timeout, or a connection refused/reset by a restarting server.
func IsTransient(err error) bool {
	var se *ServerError
	if errors.As(err, &se) {
		return se.Transient
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	return errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET)
}

// DialRetry connects to addr, retrying transient dial failures (connection
// refused, timeouts) under p — the usual way to wait out a server that is
// still replaying its write-ahead log at startup.
func DialRetry(addr string, p RetryPolicy) (*Client, error) {
	p = p.withDefaults()
	var deadline time.Time
	if p.MaxElapsed > 0 {
		deadline = time.Now().Add(p.MaxElapsed)
	}
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		c, err := Dial(addr)
		if err == nil {
			return c, nil
		}
		if !IsTransient(err) || attempt >= p.MaxAttempts ||
			(!deadline.IsZero() && !time.Now().Before(deadline)) {
			return nil, err
		}
		delay = p.sleep(delay)
	}
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriter(conn),
		br:   bufio.NewReader(conn),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Do sends one request and waits for its response. Protocol-level failures
// return an error; request-level failures are reported in Response.Error.
func (c *Client) Do(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.respCh != nil {
		// V2 session: the reader goroutine owns the read side and routes the
		// response here, interleaved event frames notwithstanding.
		req.V = Version2
		if err := WriteFrame(c.bw, &req); err != nil {
			return nil, err
		}
		if err := c.bw.Flush(); err != nil {
			return nil, err
		}
		resp, ok := <-c.respCh
		if !ok {
			return nil, c.readError()
		}
		return resp, nil
	}
	req.V = Version
	if err := WriteFrame(c.bw, &req); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	var resp Response
	if err := ReadFrame(c.br, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// do runs one request and folds Response.Error into the error return.
func (c *Client) do(req Request) (*Response, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, &ServerError{Msg: resp.Error, Transient: resp.Transient}
	}
	return resp, nil
}

// Retries reports how many backoff retries this client has performed across
// all AppendRetry calls, for surfacing in ingest statistics.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	_, err := c.do(Request{Op: OpPing})
	return err
}

// Datasets lists the datasets the server exposes.
func (c *Client) Datasets() ([]DatasetInfo, error) {
	resp, err := c.do(Request{Op: OpDatasets})
	if err != nil {
		return nil, err
	}
	return resp.Datasets, nil
}

// Query runs one durable top-k query. Fill either Weights or Expr in req;
// Start/End of zero default to the dataset's full span.
func (c *Client) Query(req Request) ([]Record, *Stats, error) {
	req.Op = OpQuery
	resp, err := c.do(req)
	if err != nil {
		return nil, nil, err
	}
	return resp.Records, resp.Stats, nil
}

// Explain returns the server-side planner's rendered cost assessment.
func (c *Client) Explain(req Request) (string, error) {
	req.Op = OpExplain
	resp, err := c.do(req)
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Append ingests rows into the named live dataset, in order. It returns the
// append response, which carries the committed row count. A partial
// failure (some rows committed, then one rejected) is reported as an error
// with the response still carrying the committed count.
func (c *Client) Append(dataset string, rows []IngestRow) (*Response, error) {
	resp, err := c.Do(Request{Op: OpAppend, Dataset: dataset, Rows: rows})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return resp, &ServerError{Msg: resp.Error, Transient: resp.Transient}
	}
	return resp, nil
}

// AppendRetry appends rows like Append but retries server-reported transient
// rejections (e.g. a live dataset locked by a draining ingest stream) under
// p, resuming after the committed prefix: rows the server acknowledged in a
// partially-applied response are never re-sent, so as long as the server
// keeps answering, each row commits exactly once. The returned response
// aggregates the committed count across attempts. Non-transient failures (validation errors, unknown dataset)
// return immediately — and so do transport-level failures (timeout, reset
// connection): with no response frame the commit state of the in-flight rows
// is unknown and this client never re-dials, so blindly re-sending could
// apply rows twice. Those return an error wrapping ErrIndeterminate with the
// response covering only server-acknowledged rows; callers that want to
// resume must reconcile first — re-dial and compare the dataset's reported
// length against the rows they consider acknowledged.
func (c *Client) AppendRetry(dataset string, rows []IngestRow, p RetryPolicy) (*Response, error) {
	p = p.withDefaults()
	var deadline time.Time
	if p.MaxElapsed > 0 {
		deadline = time.Now().Add(p.MaxElapsed)
	}
	total := &Response{V: Version, OK: true}
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		resp, err := c.Append(dataset, rows)
		if resp != nil {
			// Keep the committed prefix even when the attempt failed
			// part-way: retrying re-sends only what is still pending.
			total.Appended += resp.Appended
			rows = rows[resp.Appended:]
		} else if err != nil {
			// No response frame: the connection failed mid-request, so the
			// server may or may not have applied some of rows, and this
			// connection is dead. Re-sending could double-apply (on
			// strictly-increasing-time live datasets it turns into a
			// permanent validation failure instead), so stop and surface
			// the indeterminacy rather than guess.
			return total, fmt.Errorf("%w: %w", ErrIndeterminate, err)
		}
		if err == nil {
			return total, nil
		}
		if !IsTransient(err) || attempt >= p.MaxAttempts ||
			(!deadline.IsZero() && !time.Now().Before(deadline)) {
			return total, err
		}
		c.retries.Add(1)
		delay = p.sleep(delay)
	}
}

// MostDurable returns the req.N records with the largest maximum
// durability for req.K under the request's scorer and anchor, best first
// (MaxDuration carries each record's duration).
func (c *Client) MostDurable(req Request) ([]Record, error) {
	req.Op = OpMostDurable
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}
