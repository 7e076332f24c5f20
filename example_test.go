package durable_test

import (
	"fmt"
	"log"

	durable "repro"
)

// scoreboard is a tiny deterministic dataset: one attribute, ten records.
func scoreboard() *durable.Dataset {
	ds, err := durable.NewDataset(
		[]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		[][]float64{{31}, {24}, {18}, {27}, {22}, {35}, {21}, {20}, {28}, {26}},
	)
	if err != nil {
		log.Fatal(err)
	}
	return ds
}

// ExampleEngine_DurableTopK finds the records that were top-1 over the
// three ticks leading up to their own arrival.
func ExampleEngine_DurableTopK() {
	eng, err := durable.Open(durable.FromDataset(scoreboard()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{
		K:      1,
		Tau:    3,
		Start:  1,
		End:    10,
		Scorer: durable.MustLinear(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Records {
		fmt.Printf("t=%d score=%.0f\n", r.Time, r.Score)
	}
	// Output:
	// t=1 score=31
	// t=6 score=35
}

// ExampleEngine_MostDurable reports the records that kept their top-1 rank
// the longest.
func ExampleEngine_MostDurable() {
	eng, err := durable.Open(durable.FromDataset(scoreboard()))
	if err != nil {
		log.Fatal(err)
	}
	top, err := eng.MostDurable(1, durable.MustLinear(1), durable.LookBack, 2)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top {
		if r.FullHistory {
			fmt.Printf("t=%d score=%.0f top-1 over all history\n", r.Time, r.Score)
		} else {
			fmt.Printf("t=%d score=%.0f top-1 for %d ticks\n", r.Time, r.Score, r.Duration)
		}
	}
	// Output:
	// t=6 score=35 top-1 over all history
	// t=1 score=31 top-1 over all history
}

// ExampleQuery_lookAhead asks the forward-looking question instead: which
// records were never beaten during the following three ticks?
func ExampleQuery_lookAhead() {
	eng, err := durable.Open(durable.FromDataset(scoreboard()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{
		K:      1,
		Tau:    3,
		Start:  1,
		End:    7,
		Scorer: durable.MustLinear(1),
		Anchor: durable.LookAhead,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Records {
		fmt.Printf("t=%d score=%.0f\n", r.Time, r.Score)
	}
	// Output:
	// t=1 score=31
	// t=6 score=35
}

// ExampleCompileScorer ranks by a user-written scoring expression; the
// compiler derives monotonicity and index pruning bounds automatically.
func ExampleCompileScorer() {
	scorer, err := durable.CompileScorer("2*points + rebounds", 2, []string{"points", "rebounds"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("monotone:", scorer.IsMonotone())
	fmt.Println("score:", scorer.Score([]float64{30, 10}))
	// Output:
	// monotone: true
	// score: 70
}

// ExampleQuery_general uses a mid-anchored durability window: each record is
// judged over one tick before and two ticks after its own arrival.
func ExampleQuery_general() {
	eng, err := durable.Open(durable.FromDataset(scoreboard()))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.DurableTopK(durable.Query{
		K:      1,
		Tau:    3,
		Lead:   2,
		Start:  1,
		End:    10,
		Scorer: durable.MustLinear(1),
		Anchor: durable.General,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Records {
		fmt.Printf("t=%d score=%.0f\n", r.Time, r.Score)
	}
	// Output:
	// t=1 score=31
	// t=6 score=35
	// t=9 score=28
}

// ExampleEngine_Explain shows the planner's reasoning for one query.
func ExampleEngine_Explain() {
	eng, err := durable.Open(durable.FromDataset(scoreboard()))
	if err != nil {
		log.Fatal(err)
	}
	plan, err := eng.Explain(durable.Query{
		K: 1, Tau: 3, Start: 1, End: 10, Scorer: durable.MustLinear(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("chosen:", plan.Chosen)
	fmt.Println("strategies considered:", len(plan.Estimates))
	// Output:
	// chosen: t-base
	// strategies considered: 5
}
