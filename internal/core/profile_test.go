package core

import (
	"math/rand"
	"testing"

	"repro/internal/score"
	"repro/internal/topk"
)

func TestDurabilityProfileMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(400)
		d := 1 + rng.Intn(3)
		ds := randDataset(rng, n, d, trial%2 == 0)
		eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 8}})
		s := randScorer(rng, d)
		k := 1 + rng.Intn(5)
		anchor := LookBack
		if trial%3 == 0 {
			anchor = LookAhead
		}
		profile, err := eng.DurabilityProfile(k, s, anchor)
		if err != nil {
			t.Fatal(err)
		}
		if len(profile) != n {
			t.Fatalf("profile size %d want %d", len(profile), n)
		}
		for i, rec := range profile {
			if rec.ID != i || rec.Time != ds.Time(i) {
				t.Fatalf("trial %d: profile[%d] misordered: %+v", trial, i, rec)
			}
			wantDur, wantFull := BruteMaxDuration(ds, s, k, i, anchor)
			if rec.Duration != wantDur || rec.FullHistory != wantFull {
				t.Fatalf("trial %d anchor=%v k=%d record %d: got (%d,%v) want (%d,%v)",
					trial, anchor, k, i, rec.Duration, rec.FullHistory, wantDur, wantFull)
			}
		}
	}
}

// TestDurabilityProfileEngineShapes: the profile is one sweep over times and
// scores — negated times when looking ahead, no mirrored copy — on every
// engine shape: an Engine, a ShardedEngine, a LiveEngine, and a
// LiveShardedEngine with sealed and compacted shards plus a tail, all
// reporting the oracle's durations for both anchors; under retention, over
// the retained suffix with global ids.
func TestDurabilityProfileEngineShapes(t *testing.T) {
	type profiler interface {
		DurabilityProfile(k int, s score.Scorer, anchor Anchor) ([]DurabilityRecord, error)
	}
	rng := rand.New(rand.NewSource(127))
	for trial := 0; trial < 6; trial++ {
		n := 60 + rng.Intn(300)
		ds := randDataset(rng, n, 2, trial%2 == 0)
		s := randScorer(rng, 2)
		k := 1 + rng.Intn(4)
		lo, hi := ds.Span()
		le, err := NewLiveEngine(2, testEngineOpts(), LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		lse, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{}, LiveShardOptions{SealRows: 40, CompactFanout: 2})
		if err != nil {
			t.Fatal(err)
		}
		retained, err := NewLiveShardedEngine(2, testEngineOpts(), LiveOptions{}, LiveShardOptions{SealRows: 30, RetainSpan: (hi - lo) / 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			_, _, err1 := le.Append(ds.Time(i), ds.Attrs(i))
			_, _, err2 := lse.Append(ds.Time(i), ds.Attrs(i))
			_, _, err3 := retained.Append(ds.Time(i), ds.Attrs(i))
			if err1 != nil || err2 != nil || err3 != nil {
				t.Fatal(err1, err2, err3)
			}
		}
		lse.WaitSealed()
		lse.WaitCompacted()
		base := retained.Shards()[0].Lo
		if base == 0 {
			t.Fatalf("trial %d: retention retired nothing", trial)
		}
		shapes := []struct {
			name string
			eng  profiler
			base int // first row the engine retains
		}{
			{"engine", NewEngine(ds, testEngineOpts()), 0},
			{"sharded", NewShardedEngine(ds, testEngineOpts(), testShardOpts(5, ByCount)), 0},
			{"live", le, 0},
			{"live sharded", lse, 0},
			{"live sharded, retention", retained, base},
		}
		for _, anchor := range []Anchor{LookBack, LookAhead} {
			for _, sh := range shapes {
				profile, err := sh.eng.DurabilityProfile(k, s, anchor)
				if err != nil {
					t.Fatal(err)
				}
				suffix := ds.Slice(sh.base, n)
				if len(profile) != suffix.Len() {
					t.Fatalf("trial %d %s %v: %d records, want %d", trial, sh.name, anchor, len(profile), suffix.Len())
				}
				for j, rec := range profile {
					wantDur, wantFull := BruteMaxDuration(suffix, s, k, j, anchor)
					if rec.ID != sh.base+j || rec.Time != suffix.Time(j) || rec.Duration != wantDur || rec.FullHistory != wantFull {
						t.Fatalf("trial %d %s %v k=%d: profile[%d] = %+v, want duration (%d,%v)", trial, sh.name, anchor, k, j, rec, wantDur, wantFull)
					}
				}
			}
		}
	}
}

func TestDurabilityProfileValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	ds := randDataset(rng, 20, 2, false)
	eng := NewEngine(ds, Options{})
	if _, err := eng.DurabilityProfile(0, score.MustLinear(1, 1), LookBack); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := eng.DurabilityProfile(1, nil, LookBack); err == nil {
		t.Fatal("nil scorer must fail")
	}
	if _, err := eng.DurabilityProfile(1, score.MustLinear(1), LookBack); err == nil {
		t.Fatal("dims mismatch must fail")
	}
}

func TestMostDurableOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	ds := randDataset(rng, 300, 2, false)
	eng := NewEngine(ds, Options{})
	s := randScorer(rng, 2)
	top, err := eng.MostDurable(2, s, LookBack, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("MostDurable returned %d records", len(top))
	}
	for i := 1; i < len(top); i++ {
		a, b := top[i-1], top[i]
		if !a.FullHistory && b.FullHistory {
			t.Fatal("full-history records must rank first")
		}
		if a.FullHistory == b.FullHistory && a.Duration < b.Duration {
			t.Fatal("durations must descend")
		}
	}
	// n=0 returns the whole profile.
	all, err := eng.MostDurable(2, s, LookBack, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ds.Len() {
		t.Fatalf("n=0 must return all records, got %d", len(all))
	}
}

// TestProfileConsistentWithDurTop cross-checks the two durability paths: a
// record is in DurTop(k, I, tau) exactly when its profile duration is >= tau
// (or its window is truncated by history).
func TestProfileConsistentWithDurTop(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	for trial := 0; trial < 8; trial++ {
		ds := randDataset(rng, 250, 2, trial%2 == 0)
		eng := NewEngine(ds, Options{})
		s := randScorer(rng, 2)
		k := 1 + rng.Intn(4)
		lo, hi := ds.Span()
		tau := 1 + rng.Int63n(ds.TimeSpan())
		profile, err := eng.DurabilityProfile(k, s, LookBack)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.DurableTopK(Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Algorithm: THop})
		if err != nil {
			t.Fatal(err)
		}
		inAnswer := map[int]bool{}
		for _, r := range res.Records {
			inAnswer[r.ID] = true
		}
		for _, rec := range profile {
			wantDurable := rec.Duration >= tau || rec.FullHistory
			if wantDurable != inAnswer[rec.ID] {
				t.Fatalf("trial %d k=%d tau=%d record %d: profile dur=%d full=%v but durable=%v",
					trial, k, tau, rec.ID, rec.Duration, rec.FullHistory, inAnswer[rec.ID])
			}
		}
	}
}

func BenchmarkDurabilityProfile50k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := randDataset(rng, 50_000, 2, false)
	eng := NewEngine(ds, Options{})
	s := score.MustLinear(0.4, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DurabilityProfile(10, s, LookBack); err != nil {
			b.Fatal(err)
		}
	}
}
