package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// checkOneIn is the share of query responses kept for the brute-force oracle.
const checkOneIn = 50

// captureFrames bounds how many request, response and event values a traced
// pass keeps for the direct wire-layer timings.
const captureFrames = 256

// latencyCap is the capacity every latency buffer is allocated with up front,
// so that what the benchmark itself adds to the reported heap is a constant,
// however many operations a window completes.
const latencyCap = 1 << 18

// answered is one query response kept for the oracle.
type answered struct {
	q    *query
	recs []wire.Record
}

// explorer issues queries on one connection, closed loop.
type explorer struct {
	c  *wire.Client
	tr *tracer

	ms      []float64 // latency of every answered query
	sent    int
	failed  int
	firstEr error
	checks  []answered
	algs    map[string]int // stats.algorithm of the responses
	capture bool           // keep the first captureFrames requests and responses
	reqs    []wire.Request
	resps   []*wire.Response
}

func newExplorer(st *stack, c *wire.Client, cfg *config) *explorer {
	return &explorer{
		c: c, tr: st.tr, capture: st.tr != nil || cfg.keepFrames,
		ms: make([]float64, 0, latencyCap), algs: make(map[string]int),
	}
}

// query sends q and waits for its answer. record is false during warm-up.
// It reports false once the connection is gone, so that loops end.
func (e *explorer) query(q *query, record bool) bool {
	var req uint64
	var s span
	if e.tr != nil && record {
		req = e.tr.newID()
		s = span{ID: req, Req: req, Name: spanClientQuery, Start: e.tr.now()}
		e.tr.expect(q.sig, req)
	}
	start := time.Now()
	resp, err := e.c.Do(q.req)
	took := time.Since(start)
	if req != 0 {
		e.tr.record(s)
		e.tr.forget(q.sig, req)
	}
	alive := err == nil
	if !record {
		return alive
	}
	e.sent++
	if err == nil && !resp.OK {
		err = fmt.Errorf("query refused: %s", resp.Error)
	}
	if err != nil {
		e.failed++
		if e.firstEr == nil {
			e.firstEr = err
		}
		return alive
	}
	e.ms = append(e.ms, float64(took)/1e6)
	if resp.Stats != nil {
		e.algs[resp.Stats.Algorithm]++
	}
	if e.sent%checkOneIn == 0 {
		e.checks = append(e.checks, answered{q: q, recs: resp.Records})
	}
	if e.capture && len(e.reqs) < captureFrames {
		e.reqs = append(e.reqs, q.req)
		e.resps = append(e.resps, resp)
	}
	return true
}

// sendRing remembers when recent append batches were sent, so that the
// follower can turn an event's prefix into a lag. Only recent batches are
// ever looked up, so a small ring suffices; entries are unix nanoseconds.
type sendRing struct {
	base  int // dataset rows before the producer's first batch
	batch int
	at    [1 << 12]atomic.Int64
}

func (r *sendRing) stamp(batchNo int, t time.Time) { r.at[batchNo%len(r.at)].Store(t.UnixNano()) }

// sentAt returns the send time of the batch that carried the row whose
// commit made the dataset prefix rows long.
func (r *sendRing) sentAt(prefix int) int64 {
	return r.at[((prefix-r.base-1)/r.batch)%len(r.at)].Load()
}

// producer appends generated batches on one connection, closed loop.
type producer struct {
	c       *wire.Client
	tr      *tracer
	dataset string
	rows    *rowGen
	ring    *sendRing

	ms      []float64 // ack latency of every acknowledged batch
	batches int       // batches sent, warm-up included: the ring's batch number
	sent    int       // batches sent while recording
	acked   int       // rows acknowledged while recording
	total   int       // rows acknowledged, warm-up included
	failed  int
	firstEr error
	keep    bool // keep every acknowledged row, for the oracle and replays
	kept    []wire.IngestRow
	lastReq uint64
	reqs    []wire.Request
	resps   []*wire.Response
}

func newProducer(st *stack, c *wire.Client, dataset string, rows *rowGen, base, batch int) *producer {
	return &producer{
		c: c, tr: st.tr, dataset: dataset, rows: rows, keep: st.tr != nil,
		ring: &sendRing{base: base, batch: batch},
		ms:   make([]float64, 0, latencyCap),
	}
}

// appendBatch sends the next batch and waits for its acknowledgment.
func (p *producer) appendBatch(record bool) bool {
	rows := p.rows.batch(p.ring.batch)
	req := wire.Request{Op: wire.OpAppend, Dataset: p.dataset, Rows: rows}
	var s span
	if p.tr != nil && record {
		p.lastReq = p.tr.newID()
		s = span{ID: p.lastReq, Req: p.lastReq, Name: spanClientAppend, Start: p.tr.now()}
		p.tr.appendReq.Store(p.lastReq)
	}
	start := time.Now()
	p.ring.stamp(p.batches, start)
	p.batches++
	resp, err := p.c.Do(req)
	took := time.Since(start)
	if s.ID != 0 {
		p.tr.record(s)
		p.tr.appendReq.Store(0)
	}
	if err == nil && (!resp.OK || resp.Appended != len(rows)) {
		err = fmt.Errorf("append refused after %d of %d rows: %s", resp.Appended, len(rows), resp.Error)
	}
	if record {
		p.sent++
	}
	if err != nil {
		p.failed++
		if p.firstEr == nil {
			p.firstEr = err
		}
		return false
	}
	p.total += len(rows)
	if p.keep {
		p.kept = append(p.kept, rows...)
	}
	if record {
		p.acked += len(rows)
		p.ms = append(p.ms, float64(took)/1e6)
		if p.tr != nil && len(p.reqs) < captureFrames {
			p.reqs = append(p.reqs, req)
			p.resps = append(p.resps, resp)
		}
	}
	return true
}

// standing is one subscription as the follower tracks it.
type standing struct {
	req  wire.Request
	sub  *wire.Subscription
	keep bool // keep every decision, for the monitor oracle

	next      int    // prefix the next event must carry
	seq       uint64 // sequence number of the last event
	events    int    // events received
	broken    int    // gaps, duplicates, evictions
	evicted   int    // terminal evicted frames
	lagMs     []float64
	decisions []wire.LiveDecision
}

// follower holds standing queries on one v2 connection and drains their
// events, one goroutine per subscription (each has its own channel).
type follower struct {
	c    *wire.Client
	ring *sendRing
	subs []*standing
	wg   sync.WaitGroup

	recording atomic.Bool
	received  atomic.Int64 // events since the follower started
	target    atomic.Int64 // producer's wake-up threshold on received
	caught    chan struct{}
	lagCap    int

	tr      *tracer
	capMu   sync.Mutex
	capture []wire.Event
}

// newFollower sizes each subscription's lag buffer to lagCap samples up
// front, for the same reason as latencyCap.
func newFollower(st *stack, c *wire.Client, ring *sendRing, lagCap int) *follower {
	return &follower{c: c, tr: st.tr, ring: ring, lagCap: lagCap, caught: make(chan struct{}, 1)}
}

// subscribe registers req and starts draining its events.
func (f *follower) subscribe(req wire.Request, keep bool) error {
	s, err := f.c.Subscribe(req)
	if err != nil {
		return err
	}
	st := &standing{req: req, sub: s, keep: keep, next: s.Base() + 1, lagMs: make([]float64, 0, f.lagCap)}
	f.subs = append(f.subs, st)
	f.wg.Add(1)
	go f.drain(st)
	return nil
}

func (f *follower) drain(st *standing) {
	defer f.wg.Done()
	for ev := range st.sub.Events() {
		now := time.Now().UnixNano()
		if ev.Event != wire.EventSub || ev.Prefix != st.next || ev.Seq != st.seq+1 || ev.Decision == nil {
			st.broken++
			st.evicted += btoi(ev.Event == wire.EventEvicted)
		}
		st.next, st.seq = ev.Prefix+1, ev.Seq
		st.events++
		if f.recording.Load() {
			st.lagMs = append(st.lagMs, float64(now-f.ring.sentAt(ev.Prefix))/1e6)
		}
		if st.keep && ev.Decision != nil {
			st.decisions = append(st.decisions, *ev.Decision)
		}
		if f.tr != nil && f.recording.Load() {
			f.capMu.Lock()
			if len(f.capture) < captureFrames {
				f.capture = append(f.capture, ev)
			}
			f.capMu.Unlock()
		}
		if f.received.Add(1) == f.target.Load() {
			select {
			case f.caught <- struct{}{}:
			default:
			}
		}
	}
}

// await blocks until the follower holds want events in total. It reports
// false if they do not arrive within the timeout: missing events.
func (f *follower) await(want int64, timeout time.Duration) bool {
	f.target.Store(want)
	if f.received.Load() >= want {
		return true
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for f.received.Load() < want {
		select {
		case <-f.caught:
		case <-timer.C:
			return f.received.Load() >= want
		}
	}
	return true
}

// stop unsubscribes everything and waits for the drain goroutines.
func (f *follower) stop() error {
	var first error
	for _, st := range f.subs {
		if err := f.c.Unsubscribe(st.sub); err != nil && first == nil {
			first = err
		}
	}
	f.wg.Wait()
	return first
}

func (f *follower) dropped() (n int64) {
	for _, st := range f.subs {
		n += st.sub.Dropped()
	}
	return n
}
