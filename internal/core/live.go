package core

import "math"

// LiveOptions configures the storage of a live engine beyond the shared
// engine Options.
type LiveOptions struct {
	// Capacity pre-sizes the columnar storage for that many records; 0 is
	// fine (growth is amortized either way).
	Capacity int
}

// LiveEngine answers durable top-k queries over a still-growing dataset: the
// streaming counterpart of Engine. It is the LiveShardedEngine whose tail
// never seals — one forest indexing the engine's columns in place — so a
// query at any point observes exactly the records appended so far and
// returns precisely what a batch Engine built over that prefix would, and it
// plans like one (its epoch is the tail snapshot engine's own group, S-Band
// included).
type LiveEngine = LiveShardedEngine

// NewLiveEngine returns an empty live engine for d-dimensional records.
func NewLiveEngine(d int, opts Options, live LiveOptions) (*LiveEngine, error) {
	return NewLiveShardedEngine(d, opts, live, LiveShardOptions{SealRows: math.MaxInt})
}
