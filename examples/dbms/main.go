// DBMS example (paper §VI-C): load a dataset into the embedded
// page-structured engine and compare the T-Hop and T-Base stored procedures
// on wall time and buffer-pool page reads.
package main

import (
	"fmt"
	"log"

	durable "repro"
	"repro/internal/datagen"
	"repro/internal/dbms"
)

func main() {
	ds := datagen.IND(3, 120_000, 2)
	db, err := dbms.Load(ds, dbms.Options{PoolPages: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d records into %d heap pages (8 KiB each), summary index: %d nodes\n",
		ds.Len(), db.Table.NumPages(), db.Index.NumNodes())
	fmt.Printf("buffer pool: %d frames (deliberately smaller than the data)\n\n", db.Pool.Capacity())

	scorer := durable.MustLinear(0.6, 0.4)
	lo, hi := ds.Span()
	span := hi - lo
	k, tau := 10, span/10
	start := hi - span/2

	hopIDs, hopStats, err := db.DurableTHop(scorer, k, tau, start, hi)
	if err != nil {
		log.Fatal(err)
	}
	baseIDs, baseStats, err := db.DurableTBase(scorer, k, tau, start, hi)
	if err != nil {
		log.Fatal(err)
	}
	if len(hopIDs) != len(baseIDs) {
		log.Fatalf("procedures disagree: %d vs %d results", len(hopIDs), len(baseIDs))
	}

	fmt.Printf("durable top-%d over the most recent half, tau=%d: %d records\n\n", k, tau, len(hopIDs))
	fmt.Printf("%-8s %12s %12s %12s\n", "proc", "elapsed", "page reads", "topk queries")
	fmt.Printf("%-8s %12v %12d %12d\n", "t-hop", hopStats.Elapsed, hopStats.PageReads, hopStats.TopKQueries)
	fmt.Printf("%-8s %12v %12d %12d\n", "t-base", baseStats.Elapsed, baseStats.PageReads, baseStats.TopKQueries)
	fmt.Printf("\nt-hop read %.1fx fewer pages than the full sliding pass\n",
		float64(baseStats.PageReads)/float64(max(1, hopStats.PageReads)))

	// Cross-check against the in-memory engine.
	eng, err := durable.Open(durable.FromDataset(ds))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{K: k, Tau: tau, Start: start, End: hi, Scorer: scorer})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Records) != len(hopIDs) {
		log.Fatalf("DBMS and in-memory answers disagree: %d vs %d", len(hopIDs), len(res.Records))
	}
	fmt.Println("cross-checked: DBMS answers match the in-memory engine")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
