package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/monitor"
	"repro/internal/score"
	"repro/internal/sub"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Span names. Spans are recorded only here, around the benchmark's calls
// into each layer; the program itself carries no instrumentation.
const (
	spanClientQuery  = "client.query"  // wire.Client.Do of a query, as the caller sees it
	spanClientAppend = "client.append" // wire.Client.Do of an append batch
	spanClientEvents = "client.events" // append batch sent → its last event received
	spanCoreQuery    = "core.query"    // Querier.DurableTopK as the server calls it
	spanIngestAppend = "ingest.append" // LiveIngest.Append of one row (store or engine)
	spanWALWrite     = "wal.write"     // WriteAt on a *.wal segment
	spanWALFsync     = "wal.fsync"     // Sync on a *.wal segment
	spanCkptWrite    = "pagestore.write"
	spanCkptFsync    = "pagestore.fsync"
)

// span is one timed call. Start and End are nanoseconds since the tracer's
// epoch; Parent is the span that caused this one (0 = none) and Req ties
// together every span of one client request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// querySig identifies a query by everything the server-side wrapper can see,
// so a wrapper span can find the client request that caused it without the
// wire protocol carrying an id.
type querySig struct {
	K          int
	Tau        int64
	Start, End int64
	Anchor     core.Anchor
	Scorer     string
}

func sigOf(q *core.Query) querySig {
	key, _ := score.CanonicalKey(q.Scorer)
	return querySig{K: q.K, Tau: q.Tau, Start: q.Start, End: q.End, Anchor: q.Anchor, Scorer: key}
}

// tracer keeps spans in memory for the length of a measured window.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are kept only while the window runs
	ids   atomic.Uint64

	mu      sync.Mutex
	spans   []span
	waiting map[querySig][]uint64 // client requests in flight, by signature

	queries queryStats // Result.Stats of every core.query span

	// One producer connection appends at a time (closed loop), so the request
	// and wrapper span in flight identify the parents of everything below.
	appendReq  atomic.Uint64
	appendSpan atomic.Uint64
}

// queryStats sums core.Stats over the evaluations a traced window saw.
type queryStats struct {
	n, check, find, candidates, visited, pruned, results int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), waiting: make(map[querySig][]uint64), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID hands out span and request ids.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// expect registers a client query about to be sent; claim (server side)
// pops the oldest request with that signature; forget removes one that never
// reached the engine (a result-cache hit).
func (t *tracer) expect(sig querySig, req uint64) {
	t.mu.Lock()
	t.waiting[sig] = append(t.waiting[sig], req)
	t.mu.Unlock()
}

func (t *tracer) claim(sig querySig) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.waiting[sig]
	if len(q) == 0 {
		return 0
	}
	req := q[0]
	if len(q) == 1 {
		delete(t.waiting, sig)
	} else {
		t.waiting[sig] = q[1:]
	}
	return req
}

func (t *tracer) forget(sig querySig, req uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.waiting[sig]
	for i, r := range q {
		if r == req {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(t.waiting, sig)
	} else {
		t.waiting[sig] = q
	}
}

// snapshot returns the spans recorded so far, ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// durationsMs returns the durations of every span with the given name.
func durationsMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns, per span name, the total milliseconds not covered by
// child spans: a layer's own cost. Children of one parent here never overlap
// (each runs on the parent's goroutine), so covered time is their plain sum.
func selfTimes(spans []span) map[string]float64 {
	covered := make(map[uint64]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(s.End-s.Start-covered[s.ID]) / 1e6
	}
	return out
}

// writeSpans writes one JSON object per line: a header, then every span.
func writeSpans(path string, header map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(&spans[i])
	}
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// tracedQuerier is the core.Querier handed to the server in the traced pass.
// It forwards every optional interface the server discovers by type
// assertion, so the server behaves exactly as it does on the bare engine.
// The one thing it cannot forward is the concrete-type switch behind the
// datasets op's shard count, which the benchmark does not use.
type tracedQuerier struct {
	core.Querier
	tr *tracer
}

func (q *tracedQuerier) DurableTopK(cq core.Query) (*core.Result, error) {
	id, start := q.tr.newID(), q.tr.now()
	req := q.tr.claim(sigOf(&cq))
	res, err := q.Querier.DurableTopK(cq)
	q.tr.record(span{ID: id, Req: req, Parent: req, Name: spanCoreQuery, Start: start})
	if err == nil && q.tr.on.Load() {
		st := &res.Stats
		q.tr.mu.Lock()
		qs := &q.tr.queries
		qs.n++
		qs.check += st.CheckQueries
		qs.find += st.FindQueries
		qs.candidates += st.CandidateCount
		qs.visited += st.Visited
		qs.pruned += st.ShardsPruned
		qs.results += len(res.Records)
		q.tr.mu.Unlock()
	}
	return res, err
}

// SetPartialCache and EpochSeq mirror the server's own defaults when the
// engine lacks them: no partial cache, epoch 0 forever.
func (q *tracedQuerier) SetPartialCache(pc core.PartialCache) {
	if s, ok := q.Querier.(interface{ SetPartialCache(core.PartialCache) }); ok {
		s.SetPartialCache(pc)
	}
}

func (q *tracedQuerier) EpochSeq() uint64 {
	if e, ok := q.Querier.(interface{ EpochSeq() uint64 }); ok {
		return e.EpochSeq()
	}
	return 0
}

func (q *tracedQuerier) NumShards() int {
	if n, ok := q.Querier.(interface{ NumShards() int }); ok {
		return n.NumShards()
	}
	return 0
}

// tracedIngest is the wire.LiveIngest handed to the server in the traced
// pass: one span per appended row.
type tracedIngest struct {
	wire.LiveIngest
	tr *tracer
}

func (in *tracedIngest) Append(t int64, attrs []float64) (monitor.Decision, []monitor.Confirmation, error) {
	id, start := in.tr.newID(), in.tr.now()
	req := in.tr.appendReq.Load()
	in.tr.appendSpan.Store(id)
	dec, confs, err := in.LiveIngest.Append(t, attrs)
	in.tr.appendSpan.Store(0)
	in.tr.record(span{ID: id, Req: req, Parent: req, Name: spanIngestAppend, Start: start})
	return dec, confs, err
}

// tracedStoreIngest additionally forwards wire.RegistryProvider, which the
// server asserts on the ingest surface of a crash-safe store. It is a
// separate type because a plain live engine must not appear to provide one.
type tracedStoreIngest struct {
	tracedIngest
	provider wire.RegistryProvider
}

func (in *tracedStoreIngest) Registry() *sub.Registry  { return in.provider.Registry() }
func (in *tracedStoreIngest) RowSource() sub.RowSource { return in.provider.RowSource() }
func (in *tracedStoreIngest) SyncSubscriptions() error { return in.provider.SyncSubscriptions() }

// ioCounts is what the filesystem wrapper counts for one class of file.
type ioCounts struct {
	writes, bytes, fsyncs int64
	fsyncNs               []int64
}

// tracedFS wraps wal.OSFS under the store: it counts and times writes and
// fsyncs, split into WAL segments (*.wal) and everything else — checkpoint
// pages and manifests, i.e. the seal and compaction rewrites.
type tracedFS struct {
	wal.FS
	tr *tracer

	mu   sync.Mutex
	wal  ioCounts
	ckpt ioCounts
}

func (fs *tracedFS) wrap(name string, f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs, isWAL: strings.HasSuffix(name, ".wal")}, nil
}

func (fs *tracedFS) Create(name string) (wal.File, error) {
	f, err := fs.FS.Create(name)
	return fs.wrap(name, f, err)
}

func (fs *tracedFS) Open(name string) (wal.File, error) {
	f, err := fs.FS.Open(name)
	return fs.wrap(name, f, err)
}

// counts returns a copy of the counters so far.
func (fs *tracedFS) counts() (walIO, ckptIO ioCounts) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	walIO, ckptIO = fs.wal, fs.ckpt
	walIO.fsyncNs = append([]int64(nil), walIO.fsyncNs...)
	ckptIO.fsyncNs = append([]int64(nil), ckptIO.fsyncNs...)
	return walIO, ckptIO
}

type tracedFile struct {
	wal.File
	fs    *tracedFS
	isWAL bool
}

// begin returns the span skeleton of one file operation. WAL operations run
// on the appender's goroutine inside its ingest.append span; checkpoint I/O
// is background work with no parent.
func (f *tracedFile) begin(walName, ckptName string) span {
	tr := f.fs.tr
	s := span{ID: tr.newID(), Name: ckptName, Start: tr.now()}
	if f.isWAL {
		s.Name, s.Parent, s.Req = walName, tr.appendSpan.Load(), tr.appendReq.Load()
	}
	return s
}

func (f *tracedFile) counters() *ioCounts {
	if f.isWAL {
		return &f.fs.wal
	}
	return &f.fs.ckpt
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.begin(spanWALWrite, spanCkptWrite)
	n, err := f.File.WriteAt(p, off)
	f.fs.tr.record(s)
	if f.fs.tr.on.Load() {
		f.fs.mu.Lock()
		c := f.counters()
		c.writes++
		c.bytes += int64(n)
		f.fs.mu.Unlock()
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.begin(spanWALFsync, spanCkptFsync)
	err := f.File.Sync()
	took := f.fs.tr.now() - s.Start
	f.fs.tr.record(s)
	if f.fs.tr.on.Load() {
		f.fs.mu.Lock()
		c := f.counters()
		c.fsyncs++
		c.fsyncNs = append(c.fsyncNs, took)
		f.fs.mu.Unlock()
	}
	return err
}
