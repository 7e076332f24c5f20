package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

// TestStraddleRegionBuildsNothing is the span path's cost contract: a query
// whose span straddles every shard boundary, in either window direction,
// builds no index — the first look-ahead query included, which reads the
// shards' forward indexes mirrored — and once warm allocates a small bounded
// amount — no dataset copy, no per-probe garbage — while still answering like
// the unsharded engine.
func TestStraddleRegionBuildsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ds := randDataset(rng, 8000, 2, true)
	plain := NewEngine(ds, testEngineOpts())
	base := indexBuilds.Load()
	builds := func() int64 { return indexBuilds.Load() - base }
	se := NewShardedEngine(ds, testEngineOpts(), ShardOptions{Shards: 8})
	if n := builds(); n != 8 {
		t.Fatalf("%d index builds for 8 shards", n)
	}
	lo, hi := ds.Span()
	for _, anchor := range []Anchor{LookBack, LookAhead} {
		q := Query{
			K: 5, Tau: (hi - lo) / 4, // two shard widths: windows cover 3+ shards
			Start: lo, End: hi, Anchor: anchor,
			Scorer: score.MustLinear(0.3, 0.7), Algorithm: SHop,
		}
		want, err := plain.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := se.DurableTopK(q) // warms the pools
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Records) == 0 || !reflect.DeepEqual(got.Records, want.Records) {
			t.Fatalf("%v: sharded answer differs: got %d records, want %d", anchor, len(got.Records), len(want.Records))
		}
		if n := builds(); n != 8 {
			t.Fatalf("%v: the first straddling query built %d indexes, want 0", anchor, n-8)
		}
		built := builds()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := se.DurableTopK(q); err != nil {
				t.Fatal(err)
			}
		})
		if n := builds() - built; n != 0 {
			t.Fatalf("%v: warmed straddling query built %d indexes, want 0", anchor, n)
		}
		// The result, its records, the span's views and blocks (5 to 8), plus
		// what the race detector's sync.Pool drops. An index build alone would
		// be thousands.
		if allocs > 64 {
			t.Fatalf("%v: warmed straddling query allocates %.0f times, want <= 64", anchor, allocs)
		}
		t.Logf("%v: %.0f allocs/query, %d records", anchor, allocs, len(want.Records))
	}
	if n := builds(); n != 8 {
		t.Fatalf("%d index builds in total, want 8 (one per shard, serving both directions)", n)
	}
}

// TestWholeQuerySpan holds the one-span evaluation to an unsharded Engine —
// records, order, durations — on the alignments of I against the shards that
// the span's bounds must get right, and checks that ShardsPruned counts the
// shards owning no arrival in I.
func TestWholeQuerySpan(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const n = 660
	times, rows := make([]int64, n), make([][]float64, n)
	tick := int64(0)
	for i := range times {
		tick += 3 + int64(rng.Intn(4)) // gaps of 3+: room between any two shards' arrivals
		times[i] = tick
		rows[i] = []float64{float64(rng.Intn(40)), rng.Float64() * 40}
	}
	ds := data.MustNew(times, rows)
	s := score.MustLinear(0.4, 0.6) // monotone: S-Band is admissible
	plain := NewEngine(ds, testEngineOpts())
	lo, hi := ds.Span()
	for _, shards := range []int{1, 2, 8, 33} {
		se := NewShardedEngine(ds, testEngineOpts(), testShardOpts(shards, ByCount))
		infos := se.Shards()
		ai, bi := len(infos)/3, 2*len(infos)/3
		a, b := infos[ai], infos[bi]
		type interval struct {
			name       string
			start, end int64
		}
		intervals := []interval{
			{"inside one shard", ds.Time(b.Lo + 2), ds.Time(b.Hi - 3)},
			{"ends on a shard's last row", ds.Time(a.Lo + 2), b.End},
			{"starts on a shard's first row", a.Start, ds.Time(b.Hi - 3)},
			{"everything", lo, hi},
		}
		if len(infos) > 1 {
			intervals = append(intervals, interval{"between two shards' arrivals", a.End + 1, infos[ai+1].Start - 1})
		}
		for _, ivl := range intervals {
			owning := 0
			for _, in := range infos {
				if in.End >= ivl.start && in.Start <= ivl.end {
					owning++
				}
			}
			for _, tau := range []int64{25, (hi - lo) / 4} {
				for _, anchor := range []Anchor{LookBack, LookAhead, General} {
					for _, alg := range append([]Algorithm{Auto}, Algorithms()...) {
						q := Query{K: 3, Tau: tau, Start: ivl.start, End: ivl.end, Scorer: s, Anchor: anchor, Algorithm: alg}
						if anchor == General {
							q.Lead = tau / 3
						}
						at := fmt.Sprintf("shards=%d %s tau=%d %v %v", len(infos), ivl.name, tau, anchor, alg)
						want, werr := plain.DurableTopK(q)
						got, err := se.DurableTopK(q)
						if werr != nil || err != nil {
							if werr == nil || err == nil || err.Error() != werr.Error() {
								t.Fatalf("%s: sharded error %v, unsharded %v", at, err, werr)
							}
							continue
						}
						if !reflect.DeepEqual(got.Records, want.Records) {
							t.Fatalf("%s:\n got %v\nwant %v", at, got.Records, want.Records)
						}
						if got.Stats.ShardsPruned != len(infos)-owning {
							t.Fatalf("%s: ShardsPruned = %d, want %d", at, got.Stats.ShardsPruned, len(infos)-owning)
						}
						if ran := got.Stats.Algorithm; ran == Auto || ran == SBand || (alg != Auto && alg != SBand && ran != alg) {
							t.Fatalf("%s: Stats.Algorithm = %v", at, ran)
						}
						if owning == 0 && len(got.Records) != 0 {
							t.Fatalf("%s: %d records from an interval no shard owns", at, len(got.Records))
						}
						if anchor == General {
							continue // durations are not defined for mid-anchored windows
						}
						q.WithDurations = true
						if want, err = plain.DurableTopK(q); err != nil {
							t.Fatal(err)
						}
						if got, err = se.DurableTopK(q); err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Records, want.Records) {
							t.Fatalf("%s, with durations:\n got %v\nwant %v", at, got.Records, want.Records)
						}
					}
				}
			}
		}
	}
}
