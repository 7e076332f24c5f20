// Example service demonstrates the client/server deployment mode: a
// durserved-style server hosting a dataset in one goroutine, and a client
// exploring it over TCP — listing datasets, running durable top-k queries
// with both weight vectors and scoring expressions, asking the planner to
// explain itself, and flipping query parameters without ever rebuilding an
// index.
//
// Run with:
//
//	go run ./examples/service
package main

import (
	"fmt"
	"log"
	"net"

	durable "repro"
	"repro/internal/datagen"
	"repro/internal/wire"
)

func main() {
	// --- server side -----------------------------------------------------
	srv := wire.NewServer(nil)
	ds := datagen.NBA(7, 20_000)
	games, err := ds.Project([]int{0, 1, 2}) // points, assists, rebounds
	if err != nil {
		log.Fatal(err)
	}
	eng, err := durable.Open(durable.FromDataset(games))
	if err != nil {
		log.Fatal(err)
	}
	if err := srv.AddQuerier("games", eng, []string{"points", "assists", "rebounds"}); err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0") // ephemeral port
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Printf("server listening on %s\n\n", ln.Addr())

	// --- client side -------------------------------------------------------
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	infos, err := cl.Datasets()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range infos {
		fmt.Printf("dataset %q: %d records x %d attrs %v, time [%d, %d]\n",
			d.Name, d.Len, d.Dims, d.Attrs, d.Start, d.End)
	}

	span := infos[0].End - infos[0].Start
	tau := span / 10

	// 1. A linear preference query: who led scoring+playmaking for a tenth
	// of recorded history?
	recs, st, err := cl.Query(wire.Request{
		Dataset: "games",
		QuerySpec: wire.QuerySpec{
			K: 3, Tau: tau,
			Weights: []float64{1, 0.7, 0},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlinear preference (1, 0.7, 0), k=3, tau=%d: %d durable records (alg=%s, %d probes)\n",
		tau, len(recs), st.Algorithm, st.CheckQueries+st.FindQueries+st.MaintQueries)
	for _, r := range head(recs, 3) {
		fmt.Printf("  id=%d time=%d score=%.1f\n", r.ID, r.Time, r.Score)
	}

	// 2. The same exploration with a non-linear scoring expression —
	// compiled server-side against the dataset's column names.
	recs, st, err = cl.Query(wire.Request{
		Dataset: "games",
		QuerySpec: wire.QuerySpec{
			K: 3, Tau: tau,
			Expr:          "points + 6*log1p(assists) + 2*sqrt(max(rebounds, 0))",
			WithDurations: true,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexpression scorer, k=3, tau=%d: %d durable records (alg=%s)\n",
		tau, len(recs), st.Algorithm)
	for _, r := range head(recs, 3) {
		fmt.Printf("  id=%d time=%d score=%.1f stayed-on-top-for=%d\n",
			r.ID, r.Time, r.Score, r.MaxDuration)
	}

	// 3. Ask the server-side planner why it picked its strategy.
	plan, err := cl.Explain(wire.Request{
		Dataset:   "games",
		QuerySpec: wire.QuerySpec{K: 3, Tau: tau, Weights: []float64{1, 0.7, 0}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplanner explanation:\n%s", plan)

	// 4. Mid-anchored windows over the wire: records that dominated the
	// surrounding window, half before and half after their arrival.
	recs, _, err = cl.Query(wire.Request{
		Dataset: "games",
		QuerySpec: wire.QuerySpec{
			K: 1, Tau: tau, Lead: tau / 2, Anchor: "general",
			Weights: []float64{1, 0, 0},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncentered windows (lead=tau/2), k=1: %d records whose scoring peak\n", len(recs))
	fmt.Println("dominated both the run-up and the aftermath of their arrival")

	// 5. The "stood the test of time" report: which scoring performances
	// kept their top-1 rank the longest?
	champs, err := cl.MostDurable(wire.Request{
		Dataset:   "games",
		QuerySpec: wire.QuerySpec{K: 1, N: 3, Weights: []float64{1, 0, 0}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nall-time most durable top-1 scoring records:")
	for _, r := range champs {
		fmt.Printf("  id=%d time=%d score=%.1f stayed best for %d ticks\n",
			r.ID, r.Time, r.Score, r.MaxDuration)
	}
}

func head(recs []wire.Record, n int) []wire.Record {
	if len(recs) < n {
		return recs
	}
	return recs[:n]
}
