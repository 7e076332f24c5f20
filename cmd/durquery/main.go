// Command durquery runs ad-hoc durable top-k queries over a CSV dataset.
//
// The CSV needs a "time,attr0,attr1,..." header with records in strictly
// increasing time order (see cmd/durgen to produce sample files).
//
// Usage:
//
//	durquery -input data.csv -k 3 -tau 500 [-start T] [-end T] \
//	         -weights 1,0.5 [-alg s-hop] [-anchor look-back] [-durations]
//
// -shards N evaluates through a time-sharded engine (N independent
// per-shard indexes, the query one span over them; -shardby picks count or
// timespan partitioning); answers are identical to the single-engine run.
//
// The ranking can also be a scoring expression over the positional
// attributes (monotonicity and index pruning bounds are derived
// automatically):
//
//	durquery -input data.csv -k 3 -tau 500 -score "x0 + 2*log1p(x1)"
//
// Mid-anchored durability windows use -anchor general with -lead, the
// portion of the window after each record's arrival:
//
//	durquery -input data.csv -k 1 -tau 500 -anchor general -lead 250
//
// -live evaluates through the streaming ingestion engine instead: records
// are appended one at a time (exactly as durserved -live would receive
// them) and the query runs over the incrementally built index. Answers are
// identical to the default batch evaluation — this flag exists to exercise
// and demonstrate the live path from the command line. Adding -sealrows N
// (and/or -sealspan T) replays the stream through the live+sharded
// lifecycle: the mutable tail seals into immutable static shards as it
// fills, and the query runs as one span over sealed shards plus the tail.
//
// -explain prints the cost-based planner's strategy assessment instead of
// running the query.
//
// -follow turns durquery into a standing-query consumer: instead of loading
// a CSV it subscribes to a live dataset on a durserved server (started with
// -subscriptions) and streams per-append durability verdicts until
// interrupted. The scorer must be given explicitly (-weights or -score); an
// explicit -anchor narrows the stream to instant look-back decisions or
// delayed look-ahead confirmations, and the default follows both. The
// connection re-dials and re-subscribes if the server restarts; a seam shows
// as a jump in the printed prefix:
//
//	durquery -follow -addr 127.0.0.1:7411 -dataset games -k 3 -tau 500 -weights 1,0.5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	durable "repro"
	"repro/internal/data"
	"repro/internal/wire"
)

func main() {
	var (
		input     = flag.String("input", "", "CSV dataset path (required)")
		k         = flag.Int("k", 1, "top-k parameter")
		tau       = flag.Int64("tau", 0, "durability window length in ticks")
		start     = flag.Int64("start", 0, "query interval start (default: dataset start)")
		end       = flag.Int64("end", 0, "query interval end (default: dataset end)")
		weightsCS = flag.String("weights", "", "comma-separated linear preference weights (default: all 1)")
		scoreExpr = flag.String("score", "", "scoring expression over x0,x1,... (overrides -weights)")
		algName   = flag.String("alg", "auto", "algorithm: auto|t-base|t-hop|s-base|s-band|s-hop")
		anchorStr = flag.String("anchor", "look-back", "window anchor: look-back|look-ahead|general")
		lead      = flag.Int64("lead", 0, "window portion after the record (general anchor only)")
		explain   = flag.Bool("explain", false, "print the planner's strategy assessment and exit")
		durations = flag.Bool("durations", false, "also report each result's maximum durability")
		statsOnly = flag.Bool("stats", false, "print only summary statistics")
		mostDur   = flag.Int("mostdurable", 0, "instead of DurTop, report the N all-time most durable records")
		shards    = flag.Int("shards", 1, "evaluate over this many time shards (independent per-shard engines)")
		shardBy   = flag.String("shardby", "count", "shard partitioning: count|timespan")
		live      = flag.Bool("live", false, "evaluate through the streaming ingestion engine (append records one at a time)")
		sealRows  = flag.Int("sealrows", 0, "with -live: route appends through the live+sharded lifecycle, sealing the tail every N records")
		sealSpan  = flag.Int64("sealspan", 0, "with -live: seal the tail once its arrivals span this many ticks")
		asJSON    = flag.Bool("json", false, "emit results as JSON")
		follow    = flag.Bool("follow", false, "follow a standing query against a durserved server instead of querying a CSV (requires -addr, -dataset and a scorer)")
		addr      = flag.String("addr", "", "with -follow: durserved address (host:port)")
		dataset   = flag.String("dataset", "", "with -follow: live dataset name on the server")
		maxEvents = flag.Int("maxevents", 0, "with -follow: exit after this many events (0 = stream until interrupted)")
	)
	flag.Parse()
	if *follow {
		cfg := followConfig{
			addr: *addr, dataset: *dataset,
			k: *k, tau: *tau, lead: *lead, start: *start, end: *end,
			weightsCS: *weightsCS, scoreExpr: *scoreExpr, anchor: *anchorStr,
			maxEvents: *maxEvents, asJSON: *asJSON,
		}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "anchor":
				cfg.anchorSet = true
			case "start", "end":
				cfg.intervalSet = true
			}
		})
		runFollow(cfg)
		return
	}
	if *input == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*input)
	if err != nil {
		fatal(err)
	}
	ds, err := data.ReadCSV(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	weights := make([]float64, ds.Dims())
	for i := range weights {
		weights[i] = 1
	}
	if *weightsCS != "" {
		parts := strings.Split(*weightsCS, ",")
		if len(parts) != ds.Dims() {
			fatal(fmt.Errorf("need %d weights, got %d", ds.Dims(), len(parts)))
		}
		for i, p := range parts {
			weights[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				fatal(err)
			}
		}
	}
	var scorer durable.Scorer
	if *scoreExpr != "" {
		scorer, err = durable.CompileScorer(*scoreExpr, ds.Dims(), nil)
	} else {
		scorer, err = durable.NewLinear(weights)
	}
	if err != nil {
		fatal(err)
	}
	alg, err := durable.ParseAlgorithm(*algName)
	if err != nil {
		fatal(err)
	}
	anchor := durable.LookBack
	switch *anchorStr {
	case "look-back":
	case "look-ahead":
		anchor = durable.LookAhead
	case "general":
		anchor = durable.General
	default:
		fatal(fmt.Errorf("unknown anchor %q", *anchorStr))
	}

	lo, hi := ds.Span()
	if *start == 0 && *end == 0 {
		*start, *end = lo, hi
	}

	strategy, err := durable.ParseShardStrategy(*shardBy)
	if err != nil {
		fatal(err)
	}
	if (*sealRows > 0 || *sealSpan > 0) && !*live {
		fatal(fmt.Errorf("-sealrows/-sealspan require -live (they configure the live+sharded lifecycle)"))
	}
	var eng durable.Querier
	switch {
	case *live:
		if *shards > 1 {
			fatal(fmt.Errorf("-live and -shards are mutually exclusive (use -sealrows/-sealspan for live sharding)"))
		}
		// The stream is replayed into a live engine; with -sealrows/-sealspan
		// it seals into static shards as it goes, and the query spans sealed
		// shards + tail.
		opts := []durable.OpenOption{durable.FromStream(ds.Dims()),
			durable.WithLiveOptions(durable.LiveOptions{Capacity: ds.Len()})}
		if *sealRows > 0 || *sealSpan > 0 {
			opts = append(opts, durable.WithLiveSharding(durable.LiveShardOptions{SealRows: *sealRows, SealSpan: *sealSpan}))
		}
		q, err := durable.Open(opts...)
		if err != nil {
			fatal(err)
		}
		le := q.(*durable.LiveShardedEngine)
		for i := 0; i < ds.Len(); i++ {
			if _, _, err := le.Append(ds.Time(i), ds.Attrs(i)); err != nil {
				fatal(err)
			}
		}
		eng = le
	case *shards > 1:
		q, err := durable.Open(durable.FromDataset(ds),
			durable.WithSharding(durable.ShardOptions{Shards: *shards, Strategy: strategy}))
		if err != nil {
			fatal(err)
		}
		eng = q
	default:
		q, err := durable.Open(durable.FromDataset(ds))
		if err != nil {
			fatal(err)
		}
		eng = q
	}

	if *mostDur > 0 {
		top, err := eng.MostDurable(*k, scorer, anchor, *mostDur)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("# %d all-time most durable records (k=%d, %s)\n", len(top), *k, anchor)
		for _, r := range top {
			suffix := ""
			if r.FullHistory {
				suffix = "\t(entire history)"
			}
			fmt.Printf("id=%d\ttime=%d\tscore=%g\tdurability=%d%s\n", r.ID, r.Time, r.Score, r.Duration, suffix)
		}
		return
	}

	query := durable.Query{
		K: *k, Tau: *tau, Lead: *lead, Start: *start, End: *end,
		Scorer: scorer, Algorithm: alg, Anchor: anchor,
		WithDurations: *durations,
	}
	if *explain {
		plan, err := eng.Explain(query)
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
		return
	}
	res, err := eng.DurableTopK(query)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Records []durable.ResultRecord `json:"records"`
			Stats   durable.Stats          `json:"stats"`
		}{res.Records, res.Stats}); err != nil {
			fatal(err)
		}
		return
	}

	st := res.Stats
	pruned := ""
	if st.ShardsPruned > 0 {
		pruned = fmt.Sprintf(" | shards pruned=%d", st.ShardsPruned)
	}
	fmt.Printf("# %d durable records | alg=%s | %v | top-k queries=%d (check=%d find=%d maint=%d)%s\n",
		len(res.Records), st.Algorithm, st.Elapsed, st.TopKQueries(),
		st.CheckQueries, st.FindQueries, st.MaintQueries, pruned)
	if *statsOnly {
		return
	}
	for _, r := range res.Records {
		if *durations {
			suffix := ""
			if r.FullHistory {
				suffix = "+ (entire history)"
			}
			fmt.Printf("id=%d\ttime=%d\tscore=%g\tmax-durability=%d%s\n", r.ID, r.Time, r.Score, r.MaxDuration, suffix)
		} else {
			fmt.Printf("id=%d\ttime=%d\tscore=%g\n", r.ID, r.Time, r.Score)
		}
	}
}

// followConfig carries the -follow flag set into runFollow. anchorSet and
// intervalSet record whether the user typed the corresponding flags: an
// untyped -anchor subscribes to both verdict streams, and an untyped
// interval leaves the subscription unbounded.
type followConfig struct {
	addr, dataset          string
	k                      int
	tau, lead, start, end  int64
	weightsCS, scoreExpr   string
	anchor                 string
	anchorSet, intervalSet bool
	maxEvents              int
	asJSON                 bool
}

// runFollow registers a standing query on a durserved server and streams its
// per-append durability verdicts to stdout until interrupted (or until
// -maxevents). The connection reconnects and re-subscribes on failure; a
// seam shows as a jump in the printed prefix.
func runFollow(cfg followConfig) {
	if cfg.addr == "" || cfg.dataset == "" {
		fatal(fmt.Errorf("-follow needs -addr and -dataset"))
	}
	if cfg.lead != 0 {
		fatal(fmt.Errorf("-follow does not support -lead (mid-anchored windows have no online verdict)"))
	}
	spec := wire.QuerySpec{K: cfg.k, Tau: cfg.tau}
	if cfg.anchorSet {
		// An explicit anchor narrows the subscription to one verdict
		// stream; the default subscribes to both decisions and confirms.
		switch cfg.anchor {
		case "look-back", "look-ahead":
			spec.Anchor = cfg.anchor
		default:
			fatal(fmt.Errorf("-follow supports look-back or look-ahead anchors, not %q", cfg.anchor))
		}
	}
	if cfg.intervalSet {
		spec.Start, spec.End, spec.ExplicitInterval = cfg.start, cfg.end, true
	}
	switch {
	case cfg.scoreExpr != "":
		spec.Expr = cfg.scoreExpr
	case cfg.weightsCS != "":
		for _, p := range strings.Split(cfg.weightsCS, ",") {
			w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				fatal(err)
			}
			spec.Weights = append(spec.Weights, w)
		}
	default:
		// The dataset lives on the server, so its dimensionality is unknown
		// here — there is no all-ones default to fall back on.
		fatal(fmt.Errorf("-follow needs a scorer: -weights or -score"))
	}

	// A follower's whole point is outliving server restarts, so the default
	// 5-attempt budget (exhausted in ~1.5s) is far too tight here: keep
	// retrying for minutes of outage, backing off to 2s between dials.
	policy := wire.RetryPolicy{
		MaxAttempts: 1 << 16,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    2 * time.Second,
		MaxElapsed:  5 * time.Minute,
	}
	f, err := wire.Follow(cfg.addr, wire.Request{Dataset: cfg.dataset, QuerySpec: spec}, policy)
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		signal.Stop(sig) // a second interrupt kills the process outright
		f.Close()
	}()

	enc := json.NewEncoder(os.Stdout)
	var events, decisions, confirms int
	closed := false
	for ev := range f.Events() {
		events++
		if cfg.asJSON {
			if err := enc.Encode(ev); err != nil {
				fatal(err)
			}
		} else {
			if d := ev.Decision; d != nil {
				fmt.Printf("prefix=%d\tdecision\tid=%d\ttime=%d\tdurable=%t\trank=%d\n",
					ev.Prefix, d.ID, d.Time, d.Durable, d.Rank)
			}
			for _, c := range ev.Confirms {
				suffix := ""
				if c.Truncated {
					suffix = "\ttruncated"
				}
				fmt.Printf("prefix=%d\tconfirm\tid=%d\ttime=%d\tdurable=%t\tbeaten=%d%s\n",
					ev.Prefix, c.ID, c.Time, c.Durable, c.Beaten, suffix)
			}
		}
		if ev.Decision != nil {
			decisions++
		}
		confirms += len(ev.Confirms)
		if cfg.maxEvents > 0 && events >= cfg.maxEvents && !closed {
			// Keep draining: Close flushes the subscription's final
			// truncated confirmations through the channel before it closes.
			closed = true
			f.Close()
		}
	}
	if err := f.Err(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "durquery: follow ended: %d events (%d decisions, %d confirmations), %d reconnects\n",
		events, decisions, confirms, f.Reconnects())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "durquery:", err)
	os.Exit(1)
}
