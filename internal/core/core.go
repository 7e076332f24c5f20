// Package core implements the paper's primary contribution: durable top-k
// queries over instant-stamped temporal data (Gao, Sintos, Agarwal, Yang,
// ICDE 2021).
//
// Given k, a durability length tau, a query interval I = [Start, End], and a
// scoring function f, DurTop(k, I, tau) returns every record p arriving in I
// that is in the top-k (under f) of its own durability window — the window
// [p.t - tau, p.t] for the looking-back anchor, or [p.t, p.t + tau] for the
// looking-ahead anchor. A record is "in the top-k" of a window when fewer
// than k records in the window score strictly higher (§II).
//
// Five algorithms are provided (§III, §IV):
//
//	T-Base  baseline continuous sliding window, maintained incrementally in a
//	        2k-deep buffer and recomputed only when fewer than k items remain
//	T-Hop   time-prioritized with hop-skipping (Algorithm 1)
//	S-Base  score-prioritized full sort with blocking intervals
//	S-Band  durable k-skyband candidates + blocking (Algorithm 2; monotone f)
//	S-Hop   score-prioritized heap over tau-partitions (Algorithm 3)
//
// All algorithms share the range top-k building block of package topk and
// break score ties by recency (later arrival ranks first); the tie-break is
// required for hop safety and blocking correctness.
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/score"
)

// Algorithm selects a durable top-k evaluation strategy.
type Algorithm int

// The available strategies. Auto runs the cost model of package planner
// over the query and dataset shape and evaluates the strategy it chooses
// (see Querier.Explain).
const (
	Auto Algorithm = iota
	TBase
	THop
	SBase
	SBand
	SHop
)

var algorithmNames = map[Algorithm]string{
	Auto:  "auto",
	TBase: "t-base",
	THop:  "t-hop",
	SBase: "s-base",
	SBand: "s-band",
	SHop:  "s-hop",
}

// String returns the conventional lower-case name (e.g. "t-hop").
func (a Algorithm) String() string {
	if s, ok := algorithmNames[a]; ok {
		return s
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// ParseAlgorithm converts a name accepted by String back to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for a, name := range algorithmNames {
		if s == name {
			return a, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown algorithm %q", s)
}

// Algorithms lists the five concrete strategies in presentation order.
func Algorithms() []Algorithm { return []Algorithm{TBase, THop, SBase, SBand, SHop} }

// Anchor positions the durability window relative to each record's arrival.
type Anchor int

const (
	// LookBack anchors the window to end at the record: [p.t - tau, p.t].
	LookBack Anchor = iota
	// LookAhead anchors the window to start at the record: [p.t, p.t + tau].
	LookAhead
	// General anchors the window around the record using Query.Lead:
	// [p.t - (tau - Lead), p.t + Lead]. Lead = 0 equals LookBack and
	// Lead = tau equals LookAhead; intermediate values give mid-anchored
	// windows (the "anchored consistently relative to the arrival times"
	// generalization of §II). Supported by T-Hop, S-Base and S-Hop.
	General
)

// String names the anchor.
func (a Anchor) String() string {
	switch a {
	case LookAhead:
		return "look-ahead"
	case General:
		return "general"
	default:
		return "look-back"
	}
}

// Query describes one durable top-k query DurTop(k, I, tau).
//
// Scorers should not return NaN: it orders with nothing, so "fewer than k
// records score strictly higher" has no answer for it. The oracle
// (BruteForce*) ranks a NaN score below every real one, and so does the
// T-Base sweep on an unsharded Engine wherever a window holds at least k
// real-scored rows (a membership test, score >= k-th, never passes a NaN
// row). Every strategy returns under NaN scores, but nothing else is
// defined: a NaN that enters a range top-k probe's heap corrupts its order,
// so the probing strategies can return wrong answers for the rows around it.
type Query struct {
	K         int          // top-k parameter, >= 1
	Tau       int64        // durability window length in time ticks, >= 0
	Start     int64        // query interval I start (inclusive)
	End       int64        // query interval I end (inclusive)
	Scorer    score.Scorer // user-specified scoring function
	Algorithm Algorithm    // evaluation strategy; Auto runs the planner
	Anchor    Anchor       // window anchoring; default LookBack

	// Lead is the portion of the durability window after the record's
	// arrival when Anchor == General: the window is
	// [p.t - (Tau - Lead), p.t + Lead]. It must be 0 for the other anchors
	// and within [0, Tau] for General.
	Lead int64

	// WithDurations additionally computes, per result record, the maximum
	// duration for which it remains in the top-k (binary search, §II).
	// Only defined for the one-sided anchors (LookBack, LookAhead).
	WithDurations bool
}

// Validation errors returned by every Querier.
var (
	ErrBadK         = errors.New("core: k must be >= 1")
	ErrBadTau       = errors.New("core: tau must be >= 0")
	ErrBadInterval  = errors.New("core: query interval start must be <= end")
	ErrNoScorer     = errors.New("core: query needs a scorer")
	ErrDims         = errors.New("core: scorer dimensionality does not match dataset")
	ErrNotMonotone  = errors.New("core: s-band requires a monotone scorer")
	ErrBadLead      = errors.New("core: lead must be 0 (non-general anchors) or within [0, tau]")
	ErrAnchorUnsupp = errors.New("core: algorithm does not support mid-anchored windows")
)

func (q *Query) validate(dims int) error {
	if q.K < 1 {
		return ErrBadK
	}
	if q.Tau < 0 {
		return ErrBadTau
	}
	if q.Start > q.End {
		return ErrBadInterval
	}
	if q.Scorer == nil {
		return ErrNoScorer
	}
	if q.Scorer.Dims() != dims {
		return fmt.Errorf("%w: scorer wants %d, dataset has %d", ErrDims, q.Scorer.Dims(), dims)
	}
	if q.Anchor == General {
		if q.Lead < 0 || q.Lead > q.Tau {
			return fmt.Errorf("%w: lead %d, tau %d", ErrBadLead, q.Lead, q.Tau)
		}
	} else if q.Lead != 0 {
		return fmt.Errorf("%w: lead %d with %v anchor", ErrBadLead, q.Lead, q.Anchor)
	}
	return nil
}

// ResultRecord is one durable record of a query answer.
type ResultRecord struct {
	ID    int     // record id: its stream position (arrival order)
	Time  int64   // arrival time
	Score float64 // score under the query's scorer

	// MaxDuration is the largest tau' for which the record stays in the
	// top-k, filled only when Query.WithDurations is set (-1 otherwise).
	// When FullHistory is set the record was top-k over all of recorded
	// history on its window side and MaxDuration is truncated at the
	// dataset boundary.
	MaxDuration int64
	FullHistory bool
}

// Stats instruments one query evaluation.
type Stats struct {
	Algorithm      Algorithm
	CheckQueries   int // building-block invocations for durability checks
	FindQueries    int // invocations for candidate discovery (S-Hop, partitions/splits)
	MaintQueries   int // from-scratch (2k-deep) recomputations of T-Base's sliding window, the first fill included
	CandidateCount int // |C| for S-Band; sorted-set size for S-Base
	Visited        int // records popped/inspected by the main loop

	// ShardsPruned counts shard visits a query skipped: shards the query
	// router proved cannot own an answer record (their arrivals all fall
	// outside I, however far the durability windows reach), plus
	// strictly-higher-count probes of the WithDurations searches skipped
	// because the shard's score upper bound cannot beat the reference score.
	// A plain Engine is a one-shard group and counts like one.
	ShardsPruned int
	// Elapsed is the wall time of the evaluation, the WithDurations searches
	// included.
	Elapsed time.Duration
}

// TopKQueries returns the total number of building-block invocations.
func (s Stats) TopKQueries() int { return s.CheckQueries + s.FindQueries + s.MaintQueries }

// Result is a durable top-k answer, ordered by ascending arrival time.
type Result struct {
	Records []ResultRecord
	Stats   Stats
}

// IDs returns the record ids of the answer in ascending time order.
func (r *Result) IDs() []int {
	ids := make([]int, len(r.Records))
	for i, rec := range r.Records {
		ids[i] = rec.ID
	}
	return ids
}

// satSub returns a-b saturated at the int64 ends, so a window reaching past
// either end is clamped there and still holds its own record.
func satSub(a, b int64) int64 {
	c := a - b
	switch {
	case b > 0 && c > a:
		return math.MinInt64
	case b < 0 && c < a:
		return math.MaxInt64
	}
	return c
}

// satAdd returns a+b saturated at the int64 ends (see satSub).
func satAdd(a, b int64) int64 {
	c := a + b
	switch {
	case b > 0 && c < a:
		return math.MaxInt64
	case b < 0 && c > a:
		return math.MinInt64
	}
	return c
}
