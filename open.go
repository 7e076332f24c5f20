package durable

import (
	"errors"

	"repro/internal/core"
)

// OpenOption configures Open, the package's engine constructor.
type OpenOption func(*openConfig)

type openConfig struct {
	ds   *Dataset
	dims int

	opts Options

	shards        ShardOptions
	shardsSet     bool
	live          LiveOptions
	liveSet       bool
	liveShards    LiveShardOptions
	liveShardsSet bool
}

// FromDataset opens a batch engine over an existing immutable dataset.
// Exactly one of FromDataset and FromStream must be given.
func FromDataset(ds *Dataset) OpenOption {
	return func(c *openConfig) { c.ds = ds }
}

// FromStream opens an empty live engine for d-dimensional records, fed
// through Append. Exactly one of FromDataset and FromStream must be given.
func FromStream(dims int) OpenOption {
	return func(c *openConfig) { c.dims = dims }
}

// WithOptions sets the engine construction options (index building block,
// planner knobs); the zero Options is the default.
func WithOptions(opts Options) OpenOption {
	return func(c *openConfig) { c.opts = opts }
}

// WithSharding partitions a FromDataset engine into static time shards, one
// independent engine per shard (see ShardOptions).
func WithSharding(shards ShardOptions) OpenOption {
	return func(c *openConfig) { c.shards = shards; c.shardsSet = true }
}

// WithLiveOptions configures a FromStream engine's ingestion: the storage
// capacity hint.
func WithLiveOptions(live LiveOptions) OpenOption {
	return func(c *openConfig) { c.live = live; c.liveSet = true }
}

// WithLiveSharding gives a FromStream engine the LSM-style seal/freeze
// lifecycle: appends land in a mutable tail shard that seals into immutable
// static shards per LiveShardOptions.
func WithLiveSharding(shards LiveShardOptions) OpenOption {
	return func(c *openConfig) { c.liveShards = shards; c.liveShardsSet = true }
}

// Open builds an engine from a source plus options; it is the only engine
// constructor (Recover opens the crash-safe store):
//
//	eng, err := durable.Open(durable.FromDataset(ds))                          // *Engine
//	eng, err := durable.Open(durable.FromDataset(ds), durable.WithSharding(s)) // *ShardedEngine
//	eng, err := durable.Open(durable.FromStream(dims))                         // *LiveEngine
//	eng, err := durable.Open(durable.FromStream(dims),
//	        durable.WithLiveSharding(ls))                                      // *LiveShardedEngine
//
// The result serves the shared Querier contract; callers that need a
// flavor-specific surface (LiveEngine.Append, ShardedEngine.Shards) assert to
// the concrete type the options determine, as above. Incoherent
// combinations — both sources, live options on a batch source, static
// sharding on a stream — fail with an error rather than guessing.
func Open(options ...OpenOption) (Querier, error) {
	var cfg openConfig
	for _, o := range options {
		o(&cfg)
	}
	switch {
	case cfg.ds != nil && cfg.dims != 0:
		return nil, errors.New("durable: Open takes one source, not both FromDataset and FromStream")
	case cfg.ds == nil && cfg.dims == 0:
		return nil, errors.New("durable: Open needs a source (FromDataset or FromStream)")
	}
	if cfg.ds != nil {
		if cfg.liveSet || cfg.liveShardsSet {
			return nil, errors.New("durable: live options require FromStream, not FromDataset")
		}
		if cfg.shardsSet {
			return core.NewShardedEngine(cfg.ds, cfg.opts, cfg.shards), nil
		}
		return core.NewEngine(cfg.ds, cfg.opts), nil
	}
	if cfg.shardsSet {
		return nil, errors.New("durable: WithSharding requires FromDataset; streams shard through WithLiveSharding")
	}
	if cfg.liveShardsSet {
		return core.NewLiveShardedEngine(cfg.dims, cfg.opts, cfg.live, cfg.liveShards)
	}
	return core.NewLiveEngine(cfg.dims, cfg.opts, cfg.live)
}
