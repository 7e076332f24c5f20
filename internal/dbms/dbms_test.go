package dbms

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/score"
)

func randDS(rng *rand.Rand, n, d, domain int) *data.Dataset {
	b := data.NewBuilder(d, n)
	tt := int64(0)
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		tt += int64(1 + rng.Intn(3))
		for j := range row {
			if domain > 0 {
				row[j] = float64(rng.Intn(domain))
			} else {
				row[j] = rng.Float64() * 10
			}
		}
		if err := b.Append(tt, row); err != nil {
			panic(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		panic(err)
	}
	return ds
}

func idsEqual(got []uint32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

func TestProceduresMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		n := 500 + rng.Intn(3000)
		d := 1 + rng.Intn(3)
		domain := 0
		if trial%2 == 0 {
			domain = 5
		}
		ds := randDS(rng, n, d, domain)
		db, err := Load(ds, Options{PoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, d)
		for j := range w {
			w[j] = rng.Float64()
		}
		s := score.MustLinear(w...)
		lo, hi := ds.Span()
		span := hi - lo
		for q := 0; q < 3; q++ {
			k := 1 + rng.Intn(6)
			tau := rng.Int63n(span + 1)
			start := lo + rng.Int63n(span+1)
			end := start + rng.Int63n(hi-start+1)
			want := core.BruteForce(ds, s, k, tau, start, end, core.LookBack)
			hop, hopStats, err := db.DurableTHop(s, k, tau, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if !idsEqual(hop, want) {
				t.Fatalf("trial %d: t-hop %v want %v (k=%d tau=%d I=[%d,%d])",
					trial, hop, want, k, tau, start, end)
			}
			base, _, err := db.DurableTBase(s, k, tau, start, end)
			if err != nil {
				t.Fatal(err)
			}
			if !idsEqual(base, want) {
				t.Fatalf("trial %d: t-base %v want %v", trial, base, want)
			}
			if len(want) > 0 && hopStats.TopKQueries == 0 {
				t.Fatal("procedures must issue top-k queries")
			}
		}
	}
}

func TestTHopReadsFewerPages(t *testing.T) {
	// Pool of 64 frames against ~190 data+index pages: cold data, warm hot
	// index pages — the regime of the paper's §VI-C comparison.
	ds := randDS(rand.New(rand.NewSource(83)), 40_000, 2, 0)
	db, err := Load(ds, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	s := score.MustLinear(0.5, 0.5)
	lo, hi := ds.Span()
	span := hi - lo
	tau := span / 4
	start := hi - span/2

	db.Pool.DropAll()
	_, hopStats, err := db.DurableTHop(s, 10, tau, start, hi)
	if err != nil {
		t.Fatal(err)
	}
	db.Pool.DropAll()
	_, baseStats, err := db.DurableTBase(s, 10, tau, start, hi)
	if err != nil {
		t.Fatal(err)
	}
	if hopStats.PageReads >= baseStats.PageReads {
		t.Fatalf("t-hop reads (%d) must undercut t-base (%d) on a selective query",
			hopStats.PageReads, baseStats.PageReads)
	}
}

func TestLoadValidation(t *testing.T) {
	ds := randDS(rand.New(rand.NewSource(97)), 100, 2, 0)
	db, err := Load(ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := db.Span(); lo != ds.Time(0) || hi != ds.Time(ds.Len()-1) {
		t.Fatalf("Span=(%d,%d)", lo, hi)
	}
}
