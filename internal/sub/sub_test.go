package sub

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/monitor"
	"repro/internal/score"
)

// countingScorer counts Score invocations and shares a canonical key with
// every other countingScorer built over the same weights, proving the
// registry scores once per group, not once per subscription.
type countingScorer struct {
	inner *score.Linear
	calls *int
}

func (c *countingScorer) Score(a []float64) float64 { *c.calls++; return c.inner.Score(a) }
func (c *countingScorer) Dims() int                 { return c.inner.Dims() }
func (c *countingScorer) CanonicalKey() string      { return c.inner.CanonicalKey() }

func feed(rng *rand.Rand, n, spread int) ([]int64, [][]float64) {
	times := make([]int64, n)
	attrs := make([][]float64, n)
	t := int64(0)
	for i := 0; i < n; i++ {
		t += int64(1 + rng.Intn(3))
		times[i] = t
		attrs[i] = []float64{float64(rng.Intn(spread)), rng.Float64()}
	}
	return times, attrs
}

// TestMatchesStandaloneMonitor: a subscription's events must equal a
// dedicated monitor fed the same stream — the registry adds routing and
// shared scoring, never different verdicts.
func TestMatchesStandaloneMonitor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	times, attrs := feed(rng, 300, 6)
	s := score.MustLinear(1, 0.25)

	ref, err := monitor.New(3, 20, s, monitor.Options{TrackAhead: true})
	if err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(0)
	var got []Event
	id, err := r.Subscribe(Spec{Scorer: s, K: 3, Tau: 20, Decisions: true, Confirms: true},
		func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}

	var want []Event
	for i := range times {
		dec, confs, err := ref.Observe(times[i], attrs[i])
		if err != nil {
			t.Fatal(err)
		}
		ev := Event{SubID: id, Prefix: i + 1, Seq: uint64(i + 1), Decision: &dec, Confirms: confs}
		want = append(want, ev)
		if err := r.Observe(times[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}

	// Teardown flushes the same pending set Finish would.
	wantFinal := ref.Finish()
	var final []Event
	r.subs[id].emit = func(ev Event) { final = append(final, ev) }
	if err := r.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if len(final) != 1 || !reflect.DeepEqual(final[0].Confirms, wantFinal) {
		t.Fatalf("final flush %+v, want confirms %+v", final, wantFinal)
	}
	if r.Len() != 0 {
		t.Fatalf("registry holds %d subscriptions after unsubscribe", r.Len())
	}
}

// TestSharedScoringByCanonicalKey: 16 subscriptions over the same canonical
// scorer must score each append exactly once; a subscription with different
// weights forms its own group.
func TestSharedScoringByCanonicalKey(t *testing.T) {
	r := NewRegistry(0)
	var calls int
	const members = 16
	for i := 0; i < members; i++ {
		cs := &countingScorer{inner: score.MustLinear(1, 2), calls: &calls}
		if _, err := r.Subscribe(Spec{Scorer: cs, K: 1 + i%3, Tau: int64(5 + i), Decisions: true, Confirms: true},
			func(Event) {}); err != nil {
			t.Fatal(err)
		}
	}
	var otherCalls int
	other := &countingScorer{inner: score.MustLinear(2, 1), calls: &otherCalls}
	if _, err := r.Subscribe(Spec{Scorer: other, K: 1, Tau: 5, Decisions: true}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if g := r.Groups(); g != 2 {
		t.Fatalf("%d groups, want 2", g)
	}
	const appends = 50
	for i := 1; i <= appends; i++ {
		if err := r.Observe(int64(i), []float64{float64(i % 7), 1}); err != nil {
			t.Fatal(err)
		}
	}
	if calls != appends {
		t.Fatalf("shared group scored %d times over %d appends (want one per append, not %d)",
			calls, appends, appends*members)
	}
	if otherCalls != appends {
		t.Fatalf("singleton group scored %d times, want %d", otherCalls, appends)
	}
}

// TestUnkeyedScorersDoNotShare: scorers without a canonical key must stay in
// private groups (sharing would require proving the functions equal).
func TestUnkeyedScorersDoNotShare(t *testing.T) {
	r := NewRegistry(0)
	mk := func() score.Scorer {
		s, err := score.NewMonotoneCombo([]float64{1, 1}, func(x float64) float64 { return x * x }, "sq")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if _, err := r.Subscribe(Spec{Scorer: mk(), K: 1, Tau: 5, Decisions: true}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(Spec{Scorer: mk(), K: 1, Tau: 5, Decisions: true}, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	if g := r.Groups(); g != 2 {
		t.Fatalf("unkeyed scorers merged into %d group(s), want 2", g)
	}
}

// TestIntervalFilterAndBase: a bounded subscription registered mid-stream
// only reports verdicts for records inside its interval, with IDs offset to
// absolute row indices.
func TestIntervalFilterAndBase(t *testing.T) {
	r := NewRegistry(0)
	s := score.MustLinear(1)
	// Rows 1..10 exist before this subscription attaches.
	for i := 1; i <= 10; i++ {
		if err := r.Observe(int64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var evs []Event
	_, err := r.Subscribe(Spec{
		Scorer: s, K: 1, Tau: 3,
		Bounded: true, Start: 13, End: 16,
		Decisions: true, Confirms: true,
	}, func(ev Event) { evs = append(evs, ev) })
	if err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 20; i++ {
		if err := r.Observe(int64(i), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var decIDs, confIDs []int
	for _, ev := range evs {
		if ev.Decision != nil {
			decIDs = append(decIDs, ev.Decision.ID)
			if ev.Decision.Time < 13 || ev.Decision.Time > 16 {
				t.Fatalf("decision outside interval: %+v", ev.Decision)
			}
		}
		for _, c := range ev.Confirms {
			confIDs = append(confIDs, c.ID)
		}
	}
	// Times 13..16 are rows 12..15 (0-based): the base offset must map the
	// monitor's local ids (2..5) onto the absolute ones.
	if want := []int{12, 13, 14, 15}; !reflect.DeepEqual(decIDs, want) {
		t.Fatalf("decision ids %v, want %v", decIDs, want)
	}
	if want := []int{12, 13, 14, 15}; !reflect.DeepEqual(confIDs, want) {
		t.Fatalf("confirmation ids %v, want %v", confIDs, want)
	}
}

func TestValidation(t *testing.T) {
	r := NewRegistry(0)
	s := score.MustLinear(1)
	if _, err := r.Subscribe(Spec{Scorer: s, K: 1, Tau: 5}, func(Event) {}); err != ErrNoVerdicts {
		t.Fatalf("no-verdict spec: %v", err)
	}
	if _, err := r.Subscribe(Spec{Scorer: s, K: 0, Tau: 5, Decisions: true}, func(Event) {}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := r.Subscribe(Spec{Scorer: s, K: 1, Tau: 5, Bounded: true, Start: 9, End: 3, Decisions: true}, func(Event) {}); err == nil {
		t.Fatal("inverted interval accepted")
	}
	if err := r.Unsubscribe(99); err != ErrNotFound {
		t.Fatalf("unknown unsubscribe: %v", err)
	}
	r.Close()
	if _, err := r.Subscribe(Spec{Scorer: s, K: 1, Tau: 5, Decisions: true}, func(Event) {}); err != ErrClosed {
		t.Fatalf("subscribe after close: %v", err)
	}
	if err := r.Observe(1, []float64{1}); err != ErrClosed {
		t.Fatalf("observe after close: %v", err)
	}
}

// TestCloseFlushesAll: Close must flush every subscription's pending
// confirmations, truncated.
func TestCloseFlushesAll(t *testing.T) {
	r := NewRegistry(0)
	s := score.MustLinear(1)
	flushed := make(map[uint64]int)
	for i := 0; i < 4; i++ {
		var id uint64
		got, err := r.Subscribe(Spec{Scorer: s, K: 1, Tau: 1000, Confirms: true}, func(ev Event) {
			for _, c := range ev.Confirms {
				if !c.Truncated {
					panic("pending confirmation not truncated on close")
				}
			}
			flushed[id] += len(ev.Confirms)
		})
		if err != nil {
			t.Fatal(err)
		}
		id = got
	}
	for i := 1; i <= 6; i++ {
		if err := r.Observe(int64(i), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if len(flushed) != 4 {
		t.Fatalf("flushed %d subscriptions, want 4", len(flushed))
	}
	for id, n := range flushed {
		if n != 6 {
			t.Fatalf("subscription %d flushed %d confirmations, want 6", id, n)
		}
	}
}

// replayFrom builds a RowSource over parallel time/attr slices.
func replayFrom(times []int64, attrs [][]float64) RowSource {
	return func(lo, hi int, observe func(t int64, attrs []float64) error) error {
		for i := lo; i < hi; i++ {
			if err := observe(times[i], attrs[i]); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestDetachResume: detaching discards events but keeps the registration
// observing; resume re-derives exactly the missed suffix with the original
// sequence numbers.
func TestDetachResume(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	times, attrs := feed(rng, 240, 8)
	s := score.MustLinear(0.3, 2)
	rows := replayFrom(times, attrs)
	spec := Spec{Scorer: s, K: 1, Tau: 12, Decisions: true, Confirms: true}

	// Reference stream: one subscription that never detaches.
	ref := NewRegistry(0)
	var want []Event
	if _, err := ref.Subscribe(spec, func(ev Event) { want = append(want, ev) }); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry(0)
	var got []Event
	id, err := r.Subscribe(spec, func(ev Event) { got = append(got, ev) })
	if err != nil {
		t.Fatal(err)
	}
	feedBoth := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if err := ref.Observe(times[i], attrs[i]); err != nil {
				t.Fatal(err)
			}
			if err := r.Observe(times[i], attrs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	feedBoth(0, 80)
	delivered := len(got)
	lastPrefix := 0
	if delivered > 0 {
		lastPrefix = got[delivered-1].Prefix
	}
	if err := r.Detach(id); err != nil {
		t.Fatal(err)
	}
	feedBoth(80, 160) // discarded while detached
	if len(got) != delivered {
		t.Fatalf("detached subscription delivered %d new events", len(got)-delivered)
	}
	base, err := r.ResumeNotify(id, lastPrefix, func(ev Event) { got = append(got, ev) }, rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base != 0 {
		t.Fatalf("resume returned base %d, want 0", base)
	}
	feedBoth(160, 240) // live again
	if len(got) != len(want) {
		t.Fatalf("stitched stream has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		w := want[i]
		w.SubID = got[i].SubID
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("event %d:\n got  %+v\n want %+v", i, got[i], w)
		}
	}
	// Resume with a stale fromPrefix replays overlap too — duplicates are
	// the client's to drop by seq; here we just prove determinism: same
	// seq, same payload.
	var dup []Event
	if _, err := r.ResumeNotify(id, 0, func(ev Event) { dup = append(dup, ev) }, rows, nil); err != nil {
		t.Fatal(err)
	}
	if len(dup) != len(want) {
		t.Fatalf("full re-replay produced %d events, want %d", len(dup), len(want))
	}
	for i := range dup {
		if dup[i].Seq != want[i].Seq || dup[i].Prefix != want[i].Prefix {
			t.Fatalf("re-replayed event %d: (seq %d, prefix %d), want (%d, %d)",
				i, dup[i].Seq, dup[i].Prefix, want[i].Seq, want[i].Prefix)
		}
	}
}

// TestSnapshotRestore: a registry rebuilt from Snapshot via RestoreSub must
// carry on producing the identical event stream, including sequence
// numbers, from the restore point forward.
func TestSnapshotRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	times, attrs := feed(rng, 200, 10)
	rows := replayFrom(times, attrs)
	src := &Source{Weights: []float64{1, 0.25}}
	spec := Spec{Scorer: score.MustLinear(1, 0.25), K: 2, Tau: 18,
		Decisions: true, Confirms: true, Source: src}
	ephemeral := Spec{Scorer: score.MustLinear(2, 2), K: 1, Tau: 9, Decisions: true}

	ref := NewRegistry(0)
	var want []Event
	id, err := ref.Subscribe(spec, func(ev Event) { want = append(want, ev) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Subscribe(ephemeral, func(Event) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := ref.Observe(times[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
	}

	states := ref.Snapshot()
	if len(states) != 1 {
		t.Fatalf("snapshot holds %d states, want 1 (ephemeral subs excluded)", len(states))
	}
	st := states[0]
	if st.ID != id || st.Base != 0 || st.Spec.Source != src {
		t.Fatalf("snapshot state %+v", st)
	}
	if st.Acked != 120 {
		t.Fatalf("acked %d, want 120", st.Acked)
	}

	// "Restart": fresh registry at the same committed prefix.
	restored := NewRegistry(120)
	if err := restored.RestoreSub(st, rows); err != nil {
		t.Fatal(err)
	}
	restored.RestoreNextID(ref.NextID())
	if restored.Len() != 1 {
		t.Fatalf("restored registry holds %d subs", restored.Len())
	}
	// Resume from the acked prefix: nothing to backfill, stream continues.
	var got []Event
	if _, err := restored.ResumeNotify(st.ID, st.Acked, func(ev Event) { got = append(got, ev) }, rows, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("resume at acked prefix replayed %d events", len(got))
	}
	seen := len(want)
	for i := 120; i < 200; i++ {
		if err := ref.Observe(times[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
		if err := restored.Observe(times[i], attrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	tail := want[seen:]
	if len(got) != len(tail) {
		t.Fatalf("restored stream has %d events past restart, want %d", len(got), len(tail))
	}
	for i := range tail {
		if !reflect.DeepEqual(got[i], tail[i]) {
			t.Fatalf("post-restore event %d:\n got  %+v\n want %+v", i, got[i], tail[i])
		}
	}
	// New ids never alias restored ones.
	nid, err := restored.Subscribe(ephemeral, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if nid <= id {
		t.Fatalf("new id %d not past restored id %d", nid, id)
	}
}

// TestRestoreValidation: restore rejects duplicates, missing scorers, and
// bases beyond the committed prefix.
func TestRestoreValidation(t *testing.T) {
	rows := replayFrom(nil, nil)
	r := NewRegistry(0)
	spec := Spec{Scorer: score.MustLinear(1), K: 1, Tau: 5, Decisions: true}
	if err := r.RestoreSub(State{ID: 1, Spec: spec, Base: 7}, rows); err == nil {
		t.Fatal("base beyond prefix accepted")
	}
	noScorer := spec
	noScorer.Scorer = nil
	if err := r.RestoreSub(State{ID: 1, Spec: noScorer, Base: 0}, rows); err == nil {
		t.Fatal("nil scorer accepted")
	}
	if err := r.RestoreSub(State{ID: 3, Spec: spec, Base: 0}, rows); err != nil {
		t.Fatal(err)
	}
	if err := r.RestoreSub(State{ID: 3, Spec: spec, Base: 0}, rows); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if _, err := r.ResumeNotify(99, 0, func(Event) {}, rows, nil); err != ErrNotFound {
		t.Fatalf("resume of unknown id: %v", err)
	}
	if err := r.Detach(99); err != ErrNotFound {
		t.Fatalf("detach of unknown id: %v", err)
	}
}

// TestOnChange fires on registration-set mutations only.
func TestOnChange(t *testing.T) {
	r := NewRegistry(0)
	var fires int
	r.SetOnChange(func() { fires++ })
	id, err := r.Subscribe(Spec{Scorer: score.MustLinear(1), K: 1, Tau: 5, Decisions: true}, func(Event) {})
	if err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("%d fires after subscribe, want 1", fires)
	}
	if err := r.Observe(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if fires != 1 {
		t.Fatalf("observe fired onChange (%d fires)", fires)
	}
	if err := r.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if fires != 2 {
		t.Fatalf("%d fires after unsubscribe, want 2", fires)
	}
}
