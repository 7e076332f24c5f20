// Command durserved serves durable top-k queries over TCP.
//
// It hosts one engine per dataset; clients connect with the length-prefixed
// JSON protocol of internal/wire (see examples/service for a programmatic
// client) and explore k, tau, intervals, anchors and scoring functions —
// including scoring expressions such as "points + 2*log1p(assists)" —
// without rebuilding indexes.
//
// Datasets come from CSV files (cmd/durgen produces samples) or built-in
// generators:
//
//	durserved -addr :7411 \
//	    -data games=nba.csv -names games=points,assists \
//	    -gen net=network:50000:10
//
// Generator specs are name=kind:n[:dims] with kind one of nba, network,
// ind, anti, rpm.
//
// -shards N (with optional -shardby count|timespan) serves every dataset
// from a time-sharded engine: N independent per-shard indexes over zero-copy
// dataset slices, each query one span over them. Answers are identical to the
// single-engine deployment.
//
// -live name=dims serves a live dataset: it starts empty and grows through
// append requests on the wire (or -ingest below), with queries at any moment
// answering exactly as a batch engine over the records ingested so far.
// Per-append durability verdicts are standing queries (-subscriptions below).
// -ingest name streams the ReadCSV format from stdin into the named live
// dataset while the server runs, so a producer can be piped straight in:
//
//	durgen -kind nba -n 100000 | durserved -live games=2 -ingest games
//
// -sealrows N and/or -sealspan T serve -live datasets through the
// live+sharded lifecycle instead: appends route to a mutable tail shard that
// is sealed into an immutable static shard every N records (or once its
// arrivals span T ticks) — bounding rebuild work on an unbounded stream:
//
//	durgen -kind nba -n 1000000 | durserved -live games=2 -sealrows 100000 -ingest games
//
// -compactfanout N adds LSM leveling on top of the seal lifecycle: every run
// of N adjacent same-level sealed shards is merged in the background into
// one shard a level up, bounding the live shard count (and with it the shards
// a probe walks and checkpoint manifest size) to O(N·log n) however long the
// stream runs. -retain T bounds retention: sealed shards whose arrivals all
// lag the stream head by more than T ticks are retired — queries then answer
// over the retained suffix only. Both compose with -wal: merges land as
// atomic manifest level swaps and retirement advances the manifest base, so
// a restart recovers the leveled, bounded layout:
//
//	durgen -kind nba -n 1000000 | durserved -live games=2 -sealrows 10000 -compactfanout 4 -retain 500000 -ingest games
//
// -wal DIR makes every -live dataset crash-safe: each append is framed into
// a write-ahead log under DIR/<name> before the engine applies it, sealed
// tail shards are checkpointed into columns files, and a restart recovers the
// full acknowledged stream and resumes ingestion at the exact next record
// (-wal implies the live+sharded lifecycle; -fsync picks the WAL fsync
// policy). -keepcheckpoints N additionally retains the newest N checkpoint
// manifest generations as backups — a torn MANIFEST recovers losslessly from
// the newest — and removes older generations. Whatever N, columns files no
// manifest references are removed at startup and after every checkpoint.
// -conntimeout bounds each read and write per connection so a stalled
// client cannot pin a handler goroutine:
//
//	durserved -live games=2 -wal /var/lib/durserved -fsync interval -keepcheckpoints 3 -conntimeout 30s
//
// -queryworkers N serves connections pipelined: read-only requests evaluate
// concurrently — across the requests of one connection and across
// connections — on an admission pool of N workers, while responses still
// leave each connection in request order. -cache M adds a shared result cache
// with a budget of M units of 2560 bytes of encoded answer (an answer costs
// 1 + bytes/2560 of them, so M bounds the cache at M × 2560 bytes): an
// exact-match repeated query at an unchanged data epoch is replayed byte for
// byte, without touching the engine or encoding anything:
//
//	durserved -gen net=network:1000000:4 -shards 16 -queryworkers 8 -cache 4096
//
// -subscriptions enables standing queries: protocol-v2 clients subscribe to
// a live dataset with a scorer, k and tau (durquery -follow is the
// command-line consumer) and are pushed per-append durability verdicts —
// instant look-back decisions and delayed look-ahead confirmations — as
// server-initiated event frames, covering wire appends and the -ingest
// stdin feed alike. Every subscription is durable: the registration survives
// its connection (resumable by key with the missed events replayed
// server-side) and, when combined with -wal, survives server crashes too —
// the registry rides the checkpoint manifest, so a follower reconnecting
// after a restart resumes gap-free:
//
//	durgen -kind nba -n 100000 | durserved -live games=2 -ingest games -subscriptions -wal /var/lib/durserved
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	durable "repro"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/serve"
	"repro/internal/wire"
)

// cacheUnitBytes is the result cache's budget unit (serve.Cache charges an
// encoded answer 1 + bytes/2560 units); the startup line reports the bound
// it puts on -cache.
const cacheUnitBytes = 2560

// keyValue collects repeatable name=value flags.
type keyValue struct {
	keys, values []string
}

func (kv *keyValue) String() string { return strings.Join(kv.keys, ",") }

func (kv *keyValue) Set(s string) error {
	name, value, ok := strings.Cut(s, "=")
	if !ok || name == "" || value == "" {
		return fmt.Errorf("want name=value, got %q", s)
	}
	kv.keys = append(kv.keys, name)
	kv.values = append(kv.values, value)
	return nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7411", "listen address")
		seed     = flag.Int64("seed", 1, "seed for generated datasets")
		shards   = flag.Int("shards", 1, "serve each dataset from this many time shards (sharded engine when > 1)")
		shardBy  = flag.String("shardby", "count", "shard partitioning: count|timespan")
		ingest   = flag.String("ingest", "", "stream CSV records from stdin into this live dataset")
		sealRows = flag.Int("sealrows", 0, "serve -live datasets live+sharded: seal the mutable tail into a static shard every N records (0 = plain live engine)")
		sealSpan = flag.Int64("sealspan", 0, "serve -live datasets live+sharded: seal the tail once its arrivals span this many ticks (0 = no span rule)")
		compactN = flag.Int("compactfanout", 0, "compact every run of N adjacent same-level sealed shards into one shard a level up, bounding shard count to O(log n) on an unbounded stream (0 = no compaction; needs -sealrows/-sealspan)")
		retain   = flag.Int64("retain", 0, "retire sealed shards whose arrivals are all older than this many ticks behind the stream head (0 = retain everything; needs -sealrows/-sealspan)")
		walDir   = flag.String("wal", "", "serve -live datasets crash-safe from a write-ahead-logged store under this directory (one subdirectory per dataset; implies the live+sharded lifecycle)")
		fsyncPol = flag.String("fsync", "always", "WAL fsync policy for -wal: always|interval|none")
		fsyncEvy = flag.Duration("fsyncevery", 0, "fsync period for -fsync interval (0 = 50ms default)")
		keepCk   = flag.Int("keepcheckpoints", 0, "with -wal, retain the newest N checkpoint-manifest generations as backups and remove older ones (0 = single manifest, no backups; unreferenced columns files are removed whatever N)")
		connTO   = flag.Duration("conntimeout", 0, "per-connection read/write deadline; idle or stalled clients are disconnected after this long (0 = none)")
		qWorkers = flag.Int("queryworkers", 0, "admit this many concurrent query evaluations (pipelined serving; 0 = one request at a time per connection)")
		cacheSz  = flag.Int("cache", 0, "shared result cache budget in units of 2560 bytes of encoded answer (an answer costs 1 + bytes/2560); repeated queries at an unchanged data epoch are replayed byte for byte without engine work (0 = no cache)")
		subsOn   = flag.Bool("subscriptions", false, "serve standing queries: protocol-v2 clients may subscribe to live datasets and are pushed per-append durability verdicts")
		files    keyValue
		gens     keyValue
		names    keyValue
		lives    keyValue
	)
	flag.Var(&files, "data", "serve a CSV dataset as name=path (repeatable)")
	flag.Var(&gens, "gen", "serve a generated dataset as name=kind:n[:dims] (repeatable)")
	flag.Var(&names, "names", "attribute names as dataset=col1,col2,... (repeatable)")
	flag.Var(&lives, "live", "serve an initially empty live dataset as name=dims (repeatable)")
	flag.Parse()

	strategy, err := core.ParseShardStrategy(*shardBy)
	if err != nil {
		log.Fatalf("durserved: %v", err)
	}
	syncPolicy, err := durable.ParseSyncPolicy(*fsyncPol)
	if err != nil {
		log.Fatalf("durserved: -fsync: %v", err)
	}

	if len(files.keys)+len(gens.keys)+len(lives.keys) == 0 {
		fmt.Fprintln(os.Stderr, "durserved: need at least one -data, -gen or -live dataset")
		flag.Usage()
		os.Exit(2)
	}

	attrNames := map[string][]string{}
	for i, ds := range names.keys {
		attrNames[ds] = strings.Split(names.values[i], ",")
	}

	srv := wire.NewServer(nil)
	if *qWorkers > 0 {
		srv.SetScheduler(serve.NewScheduler(*qWorkers))
		log.Printf("durserved: pipelined serving, %d query workers", *qWorkers)
	}
	if *cacheSz > 0 {
		srv.SetCache(serve.NewCache(*cacheSz))
		log.Printf("durserved: result cache, %d units of %d bytes: at most %.1f MiB of encoded answers",
			*cacheSz, cacheUnitBytes, float64(*cacheSz)*cacheUnitBytes/(1<<20))
	}
	// Standing queries are an operator opt-in: without -subscriptions the
	// subscription features are withheld at hello time and subscribe
	// requests fail with a clear error, while everything else serves
	// unchanged.
	srv.SetSubscriptions(*subsOn)
	if *subsOn {
		log.Printf("durserved: standing-query subscriptions enabled (protocol v2, features %q and %q)", wire.FeatureEvents, wire.FeatureBackfill)
	}
	// The bounded skyband scan keeps S-Band's lazy index build tractable on
	// adversarial data while staying exact (see DESIGN.md §2).
	engOpts := core.Options{SkybandScanBudget: 4096}
	shardOpts := core.ShardOptions{Shards: *shards, Strategy: strategy}
	register := func(name string, ds *data.Dataset) {
		options := []durable.OpenOption{durable.FromDataset(ds), durable.WithOptions(engOpts)}
		if *shards > 1 {
			options = append(options, durable.WithSharding(shardOpts))
		}
		q, err := durable.Open(options...)
		if err != nil {
			log.Fatalf("durserved: %v", err)
		}
		if err := srv.AddQuerier(name, q, attrNames[name]); err != nil {
			log.Fatalf("durserved: %v", err)
		}
		suffix := ""
		if se, ok := q.(*core.ShardedEngine); ok {
			// The shard count actually built (cut collapse can yield fewer
			// than requested).
			suffix = fmt.Sprintf(", %d %s-partitioned time shards", se.NumShards(), strategy)
		}
		lo, hi := ds.Span()
		log.Printf("durserved: serving %q: %d records, %d dims, time [%d, %d]%s",
			name, ds.Len(), ds.Dims(), lo, hi, suffix)
	}

	for i, name := range files.keys {
		f, err := os.Open(files.values[i])
		if err != nil {
			log.Fatalf("durserved: %v", err)
		}
		ds, err := data.ReadCSV(f)
		f.Close()
		if err != nil {
			log.Fatalf("durserved: %s: %v", files.values[i], err)
		}
		register(name, ds)
	}
	for i, name := range gens.keys {
		ds, err := generate(gens.values[i], *seed)
		if err != nil {
			log.Fatalf("durserved: -gen %s: %v", gens.values[i], err)
		}
		register(name, ds)
	}

	liveEngines := map[string]liveServed{}
	var stores []*durable.Store // closed on shutdown so the WAL flushes
	for i, name := range lives.keys {
		dims, err := strconv.Atoi(lives.values[i])
		if err != nil || dims < 1 {
			log.Fatalf("durserved: -live %s=%s: want name=dims", name, lives.values[i])
		}
		var le liveServed
		suffix := ""
		lifecycle := core.LiveShardOptions{SealRows: *sealRows, SealSpan: *sealSpan, CompactFanout: *compactN, RetainSpan: *retain}
		if *walDir != "" {
			st, err := durable.Recover(filepath.Join(*walDir, name), dims, durable.StoreOptions{
				Sync: syncPolicy, SyncEvery: *fsyncEvy,
				Engine:          engOpts,
				Shard:           lifecycle,
				KeepCheckpoints: *keepCk,
				Logf:            log.Printf,
			})
			if err != nil {
				log.Fatalf("durserved: -wal %s: %v", name, err)
			}
			if err := srv.AddLiveQuerier(name, st.Engine(), st, attrNames[name]); err != nil {
				log.Fatalf("durserved: -live %s: %v", name, err)
			}
			stats := st.Stats()
			reset := ""
			if stats.WALReset {
				reset = "; corrupt tail WAL discarded behind the last checkpoint"
			}
			log.Printf("durserved: recovered %q: %d rows from %d checkpointed shards, %d replayed from the WAL%s",
				name, stats.RestoredRows, stats.RestoredShards, stats.ReplayedRows, reset)
			stores = append(stores, st)
			le = st
			suffix = fmt.Sprintf(", crash-safe (wal under %s, fsync=%s)", filepath.Join(*walDir, name), syncPolicy)
		} else {
			options := []durable.OpenOption{durable.FromStream(dims), durable.WithOptions(engOpts)}
			if *sealRows > 0 || *sealSpan > 0 {
				// Live+sharded lifecycle: appends route to a mutable tail
				// shard that seals into immutable static shards as it fills.
				options = append(options, durable.WithLiveSharding(lifecycle))
				suffix = fmt.Sprintf(", sealing every %s", sealRuleString(*sealRows, *sealSpan))
			}
			q, err := durable.Open(options...)
			if err != nil {
				log.Fatalf("durserved: -live %s: %v", name, err)
			}
			le = q.(liveServed)
			if err := srv.AddLiveQuerier(name, q, le, attrNames[name]); err != nil {
				log.Fatalf("durserved: -live %s: %v", name, err)
			}
		}
		liveEngines[name] = le
		log.Printf("durserved: serving live %q: %d dims, awaiting appends%s", name, dims, suffix)
	}

	if *ingest != "" {
		le, ok := liveEngines[*ingest]
		if !ok {
			log.Fatalf("durserved: -ingest %s: no such -live dataset", *ingest)
		}
		// Wire appends are locked out until stdin drains: a client record
		// with a later timestamp interleaved mid-feed would make the feed's
		// next record non-increasing and abort the whole stream.
		if err := srv.SetIngesting(*ingest, true); err != nil {
			log.Fatalf("durserved: %v", err)
		}
		go func() {
			defer func() {
				if err := srv.SetIngesting(*ingest, false); err != nil {
					log.Printf("durserved: %v", err)
				}
			}()
			// Rows go through the server's append path (not the bare
			// engine) so standing-query subscribers observe the stdin feed
			// exactly like wire appends, at exact prefixes.
			n := 0
			err := data.StreamCSV(os.Stdin, func(t int64, attrs []float64) error {
				if err := srv.AppendRow(*ingest, t, attrs); err != nil {
					return err
				}
				n++
				return nil
			})
			if err != nil {
				log.Printf("durserved: ingest %q: %v (after %d records)", *ingest, err, n)
				return
			}
			log.Printf("durserved: ingest %q: stdin drained after %d records (%d index rebuilds)",
				*ingest, n, le.Rebuilds())
		}()
	}

	srv.SetConnTimeout(*connTO)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("durserved: %v", err)
	}
	log.Printf("durserved: listening on %s", ln.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Print("durserved: shutting down")
		srv.Close()
	}()
	if err := srv.Serve(ln); err != nil && !isClosed(err) {
		log.Fatalf("durserved: %v", err)
	}
	srv.Close() // idempotent; waits until in-flight connections drain
	// Connections have drained; flush and close the durable stores so the
	// final WAL tail is on stable storage before exit.
	for _, st := range stores {
		if err := st.Close(); err != nil {
			log.Printf("durserved: closing store: %v", err)
		}
	}
}

func isClosed(err error) bool {
	return strings.Contains(err.Error(), "use of closed network connection")
}

// liveServed is the ingestion surface durserved needs from a live dataset's
// engine, satisfied by the live engine (sealing with -sealrows/-sealspan or
// never) and the store.
type liveServed interface {
	wire.LiveIngest
	Rebuilds() int
}

// sealRuleString renders the active seal thresholds for the startup log.
func sealRuleString(rows int, span int64) string {
	switch {
	case rows > 0 && span > 0:
		return fmt.Sprintf("%d records or %d ticks", rows, span)
	case span > 0:
		return fmt.Sprintf("%d ticks", span)
	default:
		return fmt.Sprintf("%d records", rows)
	}
}

// generate builds a synthetic dataset from a kind:n[:dims] spec.
func generate(spec string, seed int64) (*data.Dataset, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("want kind:n[:dims], got %q", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad size %q", parts[1])
	}
	dims := 2
	if len(parts) == 3 {
		dims, err = strconv.Atoi(parts[2])
		if err != nil || dims < 1 {
			return nil, fmt.Errorf("bad dims %q", parts[2])
		}
	}
	switch parts[0] {
	case "nba":
		return datagen.NBA(seed, n), nil
	case "network":
		return datagen.Network(seed, n, dims), nil
	case "ind":
		return datagen.IND(seed, n, dims), nil
	case "anti":
		return datagen.ANTI(seed, n, dims), nil
	case "rpm":
		return datagen.RPM(seed, n), nil
	default:
		return nil, fmt.Errorf("unknown kind %q (want nba|network|ind|anti|rpm)", parts[0])
	}
}
