// Streaming extension: monitor durable top-k records as data arrives.
//
// The paper's building block supports updates (§II); this repository
// implements them with an appendable forest index (logarithmic method).
// Because a looking-back durability window ends at the record itself, a new
// arrival's durability is decided immediately with one range top-k query
// against the forest — no batch rebuild, no re-scan.
//
// The second half switches to the dedicated stream monitor, which answers
// the same look-back question in O(log w) per arrival without any index,
// and additionally confirms look-ahead durability ("has yet to be broken")
// exactly when each record's forward window closes.
package main

import (
	"fmt"
	"log"
	"math/rand"

	durable "repro"
	"repro/internal/data"
	"repro/internal/topk"
)

func main() {
	const (
		k   = 3
		tau = int64(2000)
	)
	scorer := durable.MustLinear(0.7, 0.3)
	tail, err := data.NewAppendable(2, 0)
	if err != nil {
		log.Fatal(err)
	}
	forest := topk.NewForest(tail, topk.Options{})
	rng := rand.New(rand.NewSource(42))

	fmt.Printf("streaming 50000 records; flagging arrivals that enter the durable top-%d (tau=%d)\n\n", k, tau)
	flagged := 0
	var now int64
	for i := 0; i < 50_000; i++ {
		now += int64(1 + rng.Intn(3))
		attrs := []float64{rng.Float64() * 100, rng.Float64() * 100}
		// Occasional bursts of exceptional records.
		if rng.Float64() < 0.001 {
			attrs[0] += 150
		}
		if err := forest.Append(now, attrs); err != nil {
			log.Fatal(err)
		}
		// One top-k query over [now-tau, now] decides durability of the
		// arrival (fewer than k strictly-higher scores in its own window).
		items := forest.Query(scorer, k, now-tau, now)
		sc := scorer.Score(attrs)
		if len(items) < k || sc >= items[k-1].Score {
			flagged++
			if flagged <= 10 || flagged%500 == 0 {
				fmt.Printf("  t=%-8d score=%7.2f is top-%d of its trailing window (flag #%d)\n",
					now, sc, k, flagged)
			}
		}
	}
	fmt.Printf("\nflagged %d of 50000 arrivals; forest: %d trees, %d rebuilds\n",
		flagged, forest.Trees(), forest.Rebuilds())

	// Cross-check the stream decisions against the offline engine.
	times := make([]int64, forest.Len())
	attrs := make([][]float64, forest.Len())
	for i := 0; i < forest.Len(); i++ {
		times[i] = forest.Time(i)
		attrs[i] = forest.Attrs(i)
	}
	ds, err := durable.NewDataset(times, attrs)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := durable.Open(durable.FromDataset(ds))
	if err != nil {
		log.Fatal(err)
	}
	lo, hi := ds.Span()
	res, err := eng.DurableTopK(durable.Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: scorer})
	if err != nil {
		log.Fatal(err)
	}
	if len(res.Records) != flagged {
		log.Fatalf("stream flagged %d but offline found %d", flagged, len(res.Records))
	}
	fmt.Println("cross-checked: streaming decisions match the offline durable top-k answer")

	// --- the dedicated stream monitor -------------------------------------
	// Same decisions without building any index, plus delayed look-ahead
	// confirmations: a confirmation with Durable=true means the record was
	// beaten by fewer than k later arrivals for its whole forward window.
	mon, err := durable.NewMonitor(k, tau, scorer, durable.MonitorOptions{TrackAhead: true})
	if err != nil {
		log.Fatal(err)
	}
	liveFlagged, unbroken := 0, 0
	for i := 0; i < ds.Len(); i++ {
		dec, confirms, err := mon.Observe(ds.Time(i), ds.Attrs(i))
		if err != nil {
			log.Fatal(err)
		}
		if dec.Durable {
			liveFlagged++
		}
		for _, c := range confirms {
			if c.Durable {
				unbroken++
			}
		}
	}
	for _, c := range mon.Finish() {
		if c.Durable {
			unbroken++
		}
	}
	if liveFlagged != flagged {
		log.Fatalf("monitor flagged %d but forest flagged %d", liveFlagged, flagged)
	}
	fmt.Printf("\nmonitor replay: %d instant look-back flags (identical), %d records whose\n", liveFlagged, unbroken)
	fmt.Printf("score was never broken during the %d ticks after their arrival\n", tau)
}
