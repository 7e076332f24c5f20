// Package durable finds durable top-k records in instant-stamped temporal
// data, implementing "Durable Top-K Instant-Stamped Temporal Records with
// User-Specified Scoring Functions" (Gao, Sintos, Agarwal, Yang, ICDE 2021).
//
// A durable top-k query DurTop(k, I, tau) returns every record arriving in
// the interval I whose score ranks in the top-k among the records of its own
// durability window — the tau-length window ending (or, with the LookAhead
// anchor, starting) at the record's arrival. Scores come from a
// user-specified function over the record's attributes; k, tau, I and the
// scoring parameters are all chosen at query time.
//
// Quick start:
//
//	ds, _ := durable.NewDataset(times, attrs)      // strictly increasing times
//	eng, _ := durable.Open(durable.FromDataset(ds)) // builds the range top-k index
//	res, _ := eng.DurableTopK(durable.Query{
//	        K:      3,
//	        Tau:    3650,                           // e.g. ten years of day ticks
//	        Start:  times[0],
//	        End:    times[len(times)-1],
//	        Scorer: durable.MustLinear(1, 0.5),     // f(p) = x0 + 0.5*x1
//	})
//	for _, r := range res.Records { ... }
//
// Five evaluation strategies are available (see Algorithm); the hop-based
// strategies answer queries in time proportional to the answer size rather
// than the interval length, and the default Auto mode picks a strategy with
// a cost model derived from the paper's analysis (Engine.Explain shows its
// reasoning). Scoring functions can be supplied as Go values (NewLinear,
// NewCosine, …) or compiled at query time from user-written expressions
// (CompileScorer).
package durable

import (
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/expr"
	"repro/internal/monitor"
	"repro/internal/planner"
	"repro/internal/rmq"
	"repro/internal/score"
	"repro/internal/topk"
)

// Dataset is an immutable time-ordered record collection. See NewDataset.
type Dataset = data.Dataset

// Record is a lightweight view of one dataset record.
type Record = data.Record

// Builder incrementally assembles a Dataset in arrival order.
type Builder = data.Builder

// Scorer maps an attribute vector to a ranking score.
type Scorer = score.Scorer

// Query describes one durable top-k query.
type Query = core.Query

// Result is a query answer with evaluation statistics.
type Result = core.Result

// ResultRecord is one durable record of an answer.
type ResultRecord = core.ResultRecord

// Stats instruments one query evaluation.
type Stats = core.Stats

// Engine answers durable top-k queries over one dataset.
type Engine = core.Engine

// Algorithm selects an evaluation strategy.
type Algorithm = core.Algorithm

// Anchor positions the durability window relative to each record.
type Anchor = core.Anchor

// TopKItem is one record of a plain range top-k answer.
type TopKItem = topk.Item

// Evaluation strategies (paper §III-§IV). Auto defers to the cost-based
// query planner (see Engine.Explain for its reasoning).
const (
	Auto  = core.Auto
	TBase = core.TBase
	THop  = core.THop
	SBase = core.SBase
	SBand = core.SBand
	SHop  = core.SHop
)

// Window anchors. General uses Query.Lead to position the window
// [p.t - (Tau - Lead), p.t + Lead] around each record; Lead 0 and Tau
// reproduce LookBack and LookAhead.
const (
	LookBack  = core.LookBack
	LookAhead = core.LookAhead
	General   = core.General
)

// Options configures engine construction.
type Options = core.Options

// IndexOptions configures the range top-k building block.
type IndexOptions = topk.Options

// NewDataset validates and wraps parallel time/attribute slices; times must
// be strictly increasing.
func NewDataset(times []int64, attrs [][]float64) (*Dataset, error) {
	return data.New(times, attrs)
}

// NewBuilder returns a dataset builder for d-dimensional records.
func NewBuilder(d, capacity int) *Builder { return data.NewBuilder(d, capacity) }

// ShardedEngine scales durable top-k indexing horizontally: contiguous
// time-range shards, one independent index per shard over a zero-copy
// dataset view, and each query evaluated once as a single span whose range
// top-k probes merge the overlapped shards' indexes. Results are identical
// to Engine over the same dataset.
type ShardedEngine = core.ShardedEngine

// ShardOptions configures time sharding: shard count and the partitioning
// strategy.
type ShardOptions = core.ShardOptions

// ShardStrategy selects the time-domain partitioning rule.
type ShardStrategy = core.ShardStrategy

// ShardInfo describes one time shard of a ShardedEngine.
type ShardInfo = core.ShardInfo

// Partitioning strategies: ByCount balances records per shard (robust to
// bursty arrivals), ByTimeSpan gives every shard an equal slice of the time
// domain (natural for wall-clock routing such as one shard per month).
const (
	ByCount    = core.ByCount
	ByTimeSpan = core.ByTimeSpan
)

// Querier is the query-serving contract shared by Engine and ShardedEngine.
type Querier = core.Querier

// ParseShardStrategy converts "count" or "timespan" to a ShardStrategy.
func ParseShardStrategy(s string) (ShardStrategy, error) { return core.ParseShardStrategy(s) }

// LiveEngine answers durable top-k queries over a still-growing dataset: the
// streaming counterpart of Engine. Records arrive one at a time through
// Append (incremental flat-storage appends indexed by a logarithmic-merge
// forest — no full rebuilds on the query path, look-ahead windows read the
// forest mirrored); a query at any point returns exactly what a batch Engine
// built over the records appended so far would. Only a pinned S-Band query
// builds an auxiliary structure (its skyband ladder) per prefix. For
// per-arrival verdicts serve the engine and subscribe to it (a standing
// query: instant look-back decisions with each arrival and delayed
// look-ahead confirmations as durability windows close, in O(log w) per
// record), or run a Monitor beside it.
type LiveEngine = core.LiveEngine

// LiveOptions configures live ingestion: the storage capacity hint.
type LiveOptions = core.LiveOptions

// LiveShardedEngine composes live ingestion with time sharding: appends
// route to a single mutable tail shard, and when the tail reaches a seal
// threshold (row count or time span) it is frozen into an immutable static
// shard and a fresh tail opens — the LSM-style lifecycle that bounds rebuild
// work on an unbounded stream. A query is one span over the sealed shards
// plus the tail, with the merge probes and pruning of ShardedEngine; answers
// are bit-identical to a batch Engine over the same prefix.
type LiveShardedEngine = core.LiveShardedEngine

// LiveShardOptions configures the seal/freeze lifecycle: the tail's seal
// thresholds (rows and/or time span), compaction and retention.
type LiveShardOptions = core.LiveShardOptions

// DefaultSealRows is the tail seal threshold used when LiveShardOptions sets
// neither a row nor a span rule.
const DefaultSealRows = core.DefaultSealRows

// NewLinear returns the preference scorer f(p) = sum w_i * x_i.
func NewLinear(weights []float64) (Scorer, error) { return score.NewLinear(weights) }

// MustLinear is NewLinear that panics on invalid weights.
func MustLinear(weights ...float64) Scorer { return score.MustLinear(weights...) }

// NewCosine returns the cosine-similarity preference scorer.
func NewCosine(weights []float64) (Scorer, error) { return score.NewCosine(weights) }

// Log1pCombo returns the monotone preference scorer sum w_i * log(1+x_i).
func Log1pCombo(weights []float64) (Scorer, error) { return score.Log1pCombo(weights) }

// NewSingleAttr ranks by one attribute of d-dimensional records.
func NewSingleAttr(dim, dims int) (Scorer, error) { return score.NewSingle(dim, dims) }

// ParseAlgorithm converts names like "t-hop" to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Algorithms lists the five concrete strategies.
func Algorithms() []Algorithm { return core.Algorithms() }

// BruteForce answers DurTop directly from the definition in O(n*w) time; the
// reference oracle.
func BruteForce(ds *Dataset, s Scorer, k int, tau, start, end int64, anchor Anchor) []int {
	return core.BruteForce(ds, s, k, tau, start, end, anchor)
}

// BruteForceAnchored is BruteForce for mid-anchored windows
// [p.t - (tau - lead), p.t + lead] (the General anchor).
func BruteForceAnchored(ds *Dataset, s Scorer, k int, tau, lead, start, end int64) []int {
	return core.BruteForceAnchored(ds, s, k, tau, lead, start, end)
}

// ScoringExpr is a scoring function compiled from a user-written expression
// such as "0.6*points + 2*log1p(assists)". It implements Scorer and the
// optional pruning capabilities (box upper bounds via interval arithmetic,
// automatic monotonicity detection for S-Band eligibility). See package
// internal/expr for the grammar.
type ScoringExpr = expr.Expr

// ExprOptions configures scoring-expression compilation: the expected
// dimensionality and optional attribute names usable as identifiers.
type ExprOptions = expr.Options

// CompileScorer compiles a scoring expression into a Scorer. dims fixes the
// expected record dimensionality (0 infers it); names optionally exposes
// attribute names as identifiers alongside the positional x0, x1, ….
func CompileScorer(src string, dims int, names []string) (*ScoringExpr, error) {
	return expr.Compile(src, expr.Options{Dims: dims, Names: names})
}

// Plan is the query planner's cost assessment of one query: the chosen
// strategy, the Lemma 4 / Lemma 5 size estimates, and per-strategy cost
// estimates. Produced by Engine.Explain; Auto queries follow Plan.Chosen.
type Plan = planner.Plan

// Monitor decides durability online over a live stream: instant look-back
// decisions at each arrival plus, with MonitorOptions.TrackAhead, delayed
// look-ahead confirmations once each record's forward window closes. Both
// cost O(log w) amortized for a trailing window of w records.
type Monitor = monitor.Monitor

// StreamDecision is the instant look-back verdict for one arrival.
type StreamDecision = monitor.Decision

// StreamConfirmation is the delayed look-ahead verdict for a past arrival.
type StreamConfirmation = monitor.Confirmation

// MonitorOptions configures stream monitoring.
type MonitorOptions = monitor.Options

// NewMonitor returns a streaming durable top-k monitor for tau-length
// windows under the scoring function s.
func NewMonitor(k int, tau int64, s Scorer, opts MonitorOptions) (*Monitor, error) {
	return monitor.New(k, tau, s, opts)
}

// Block is the pluggable range top-k building block of the paper's §II; the
// default is the tree index, and WithRMQBlock selects the sparse-table
// alternative for fixed-scorer workloads.
type Block = core.Block

// DurabilityRecord reports how long one record stayed in the top-k; see
// Engine.DurabilityProfile and Engine.MostDurable.
type DurabilityRecord = core.DurabilityRecord

// WithRMQBlock returns the options with the building block replaced by the
// sparse-table RMQ structure: O(n log n) per distinct scorer instance, then
// O(k log k) per range top-k probe. Best when many durable queries reuse the
// same Scorer value with varying k, tau and I.
func WithRMQBlock(opts Options) Options {
	opts.NewBlock = func(ds *data.Dataset) core.Block { return rmq.NewBlock(ds) }
	return opts
}
