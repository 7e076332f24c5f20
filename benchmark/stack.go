package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync/atomic"

	durable "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The serving tier is sized as an operator of durserved would size it on
// this host: -queryworkers GOMAXPROCS -cache 4096.
const cacheEntries = 4096

// engOpts are durserved's engine options.
var engOpts = core.Options{SkybandScanBudget: 4096}

// stack is one assembled server: what cmd/durserved builds, listening on a
// loopback port inside this process. With a tracer, the engines and the
// store's filesystem are registered behind the benchmark's own wrappers.
type stack struct {
	srv   *wire.Server
	sched *serve.Scheduler
	cache *serve.Cache
	addr  string
	done  chan error
	tr    *tracer

	logged atomic.Int64 // server-side protocol errors: each is a failed op

	stores []*durable.Store
	fs     *tracedFS // non-nil only in the traced pass
	dirs   []string

	clients []*wire.Client
}

func newStack(tr *tracer) *stack {
	s := &stack{tr: tr, done: make(chan error, 1)}
	s.srv = wire.NewServer(func(string, ...interface{}) { s.logged.Add(1) })
	s.sched = serve.NewScheduler(runtime.GOMAXPROCS(0))
	s.cache = serve.NewCache(cacheEntries)
	s.srv.SetScheduler(s.sched)
	s.srv.SetCache(s.cache)
	s.srv.SetSubscriptions(true)
	return s
}

func (s *stack) querier(q core.Querier) core.Querier {
	if s.tr == nil {
		return q
	}
	return &tracedQuerier{Querier: q, tr: s.tr}
}

// addStatic registers ds behind an 8-shard static engine (durserved -shards 8).
func (s *stack) addStatic(name string, ds *data.Dataset) (core.Querier, error) {
	q, err := durable.Open(durable.FromDataset(ds), durable.WithOptions(engOpts),
		durable.WithSharding(core.ShardOptions{Shards: 8}))
	if err != nil {
		return nil, err
	}
	return q, s.srv.AddQuerier(name, s.querier(q), attrNames)
}

// addLive registers an empty plain live dataset (durserved -live name=2):
// the same engine and served entry wire.Server.AddLive would create.
func (s *stack) addLive(name string) (*core.LiveEngine, error) {
	q, err := durable.Open(durable.FromStream(dims), durable.WithOptions(engOpts))
	if err != nil {
		return nil, err
	}
	le := q.(*core.LiveEngine)
	var ingest wire.LiveIngest = le
	if s.tr != nil {
		ingest = &tracedIngest{LiveIngest: le, tr: s.tr}
	}
	return le, s.srv.AddLiveQuerier(name, s.querier(le), ingest, attrNames)
}

// storeOptions are durserved -wal -fsync interval with the seal and
// compaction settings of the ingest workload. Not the default fsync=always:
// the wire path appends row by row, so under always an acknowledgment is 64
// raw fsyncs and nothing else (85 % of the producer's time), and on a shared
// disk raw fsync latency drifts by a quarter within minutes — every append
// metric would measure the host. alwaysCost keeps the default's price in view.
func (s *stack) storeOptions(sealRows int) durable.StoreOptions {
	opts := durable.StoreOptions{
		Sync:   durable.SyncInterval,
		Engine: engOpts,
		Shard:  core.LiveShardOptions{SealRows: sealRows, CompactFanout: 4},
	}
	if s.tr != nil {
		if s.fs == nil {
			s.fs = &tracedFS{FS: wal.OSFS{}, tr: s.tr}
		}
		opts.FS = s.fs
	}
	return opts
}

// addStore recovers (or creates) a crash-safe store in dir and registers it
// as durserved -wal does: queries from its engine, appends through the store.
func (s *stack) addStore(name, dir string, sealRows int) (*durable.Store, error) {
	st, err := durable.Recover(dir, dims, s.storeOptions(sealRows))
	if err != nil {
		return nil, err
	}
	s.stores = append(s.stores, st)
	var ingest wire.LiveIngest = st
	if s.tr != nil {
		ingest = &tracedStoreIngest{tracedIngest: tracedIngest{LiveIngest: st, tr: s.tr}, provider: st}
	}
	return st, s.srv.AddLiveQuerier(name, s.querier(st.Engine()), ingest, attrNames)
}

// tempDir creates a scratch directory under base, removed by close.
func (s *stack) tempDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "store-")
	if err == nil {
		s.dirs = append(s.dirs, dir)
	}
	return dir, err
}

func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	go func() { s.done <- s.srv.Serve(ln) }()
	return nil
}

// dial opens one more client connection; v2 also negotiates the events and
// backfill features, as wire.Follower does.
func (s *stack) dial(v2 bool) (*wire.Client, error) {
	if len(s.clients) >= max(runtime.NumCPU(), 2) {
		return nil, errors.New("benchmark: more connections than cores")
	}
	c, err := wire.Dial(s.addr)
	if err != nil {
		return nil, err
	}
	s.clients = append(s.clients, c)
	if v2 {
		if _, feats, err := c.Hello(wire.FeatureEvents, wire.FeatureBackfill); err != nil || len(feats) != 2 {
			return nil, fmt.Errorf("benchmark: hello: features %v, err %v", feats, err)
		}
	}
	return c, nil
}

// stopServing closes the clients and the server and waits for the accept
// loop and every connection handler to end. Stores stay open.
func (s *stack) stopServing() {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	if s.addr != "" {
		s.srv.Close()
		<-s.done
		s.addr = ""
	}
	s.sched.Close()
}

// close stops everything the stack started and removes its directories.
func (s *stack) close() error {
	s.stopServing()
	var err error
	for _, st := range s.stores {
		err = errors.Join(err, st.Close())
	}
	s.stores = nil
	for _, d := range s.dirs {
		err = errors.Join(err, os.RemoveAll(d))
	}
	s.dirs = nil
	return err
}
