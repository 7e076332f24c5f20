package store

import (
	"errors"
	"fmt"

	"repro/internal/expr"
	"repro/internal/score"
	"repro/internal/sub"
	"repro/internal/wal"
)

// This file makes standing-query subscriptions durable: the store owns its
// dataset's sub.Registry, persists every registration that carries a scorer
// Source through the checkpoint manifest, and rebuilds the registrations —
// monitors, sequence numbers and all — on Open by replaying the recovered
// row stream. Ordering is the same discipline as rows: a subscriber event
// is emitted only after the row it describes is WAL-committed, and a
// subscribe acknowledgment is withheld (SyncSubscriptions) until the
// manifest naming the registration is durable.

// subEntry is one persisted registration in the manifest.
type subEntry struct {
	ID        uint64    `json:"id"`
	K         int       `json:"k"`
	Tau       int64     `json:"tau"`
	Bounded   bool      `json:"bounded,omitempty"`
	Start     int64     `json:"start,omitempty"`
	End       int64     `json:"end,omitempty"`
	Decisions bool      `json:"decisions,omitempty"`
	Confirms  bool      `json:"confirms,omitempty"`
	Base      int       `json:"base"`
	Acked     int       `json:"acked"`
	Weights   []float64 `json:"weights,omitempty"`
	Expr      string    `json:"expr,omitempty"`
	Names     []string  `json:"names,omitempty"`
}

// subEntriesFrom renders registry states into manifest form.
func subEntriesFrom(states []sub.State) []subEntry {
	out := make([]subEntry, 0, len(states))
	for _, st := range states {
		e := subEntry{
			ID: st.ID, K: st.Spec.K, Tau: st.Spec.Tau,
			Bounded: st.Spec.Bounded, Start: st.Spec.Start, End: st.Spec.End,
			Decisions: st.Spec.Decisions, Confirms: st.Spec.Confirms,
			Base: st.Base, Acked: st.Acked,
		}
		if src := st.Spec.Source; src != nil {
			e.Weights, e.Expr, e.Names = src.Weights, src.Expr, src.Names
		}
		out = append(out, e)
	}
	return out
}

// toState recompiles a persisted registration into a restorable state.
func (e subEntry) toState(dims int) (sub.State, error) {
	src := &sub.Source{Weights: e.Weights, Expr: e.Expr, Names: e.Names}
	var scorer score.Scorer
	var err error
	switch {
	case len(e.Weights) > 0 && e.Expr != "":
		return sub.State{}, errors.New("both weights and expr recorded")
	case len(e.Weights) > 0:
		scorer, err = score.NewLinear(e.Weights)
	case e.Expr != "":
		scorer, err = expr.Compile(e.Expr, expr.Options{Dims: dims, Names: e.Names})
	default:
		return sub.State{}, errors.New("no scorer source recorded")
	}
	if err != nil {
		return sub.State{}, err
	}
	return sub.State{
		ID: e.ID,
		Spec: sub.Spec{
			Scorer: scorer, K: e.K, Tau: e.Tau,
			Bounded: e.Bounded, Start: e.Start, End: e.End,
			Decisions: e.Decisions, Confirms: e.Confirms,
			Source: src,
		},
		Base:  e.Base,
		Acked: e.Acked,
	}, nil
}

// Registry returns the store's standing-query registry. Registrations whose
// Spec carries a Source are persisted through checkpoints and survive
// restarts (restored detached; reattach with Resume). The store observes
// every committed append into the registry itself — callers must not.
func (s *Store) Registry() *sub.Registry { return s.reg }

// RowSource replays committed rows from the engine's append-stable view;
// the registry uses it to re-derive verdict streams. Positions are stream
// positions, as everywhere; a range reaching below the engine's base asks
// for rows retired before this open, which no longer exist — the caller's
// subscription is then dropped rather than fed a gap.
func (s *Store) RowSource() sub.RowSource {
	return func(lo, hi int, observe func(t int64, attrs []float64) error) error {
		ds, err := s.eng.Rows(lo, hi)
		if err != nil {
			return fmt.Errorf("store: row source: %w", err)
		}
		for i := 0; i < ds.Len(); i++ {
			if err := observe(ds.Time(i), ds.Attrs(i)); err != nil {
				return err
			}
		}
		return nil
	}
}

// restoreSubs rebuilds the manifest's registrations into the freshly opened
// registry. Entries that no longer fit — a scorer that fails to recompile,
// or a base past the recovered prefix (possible under relaxed fsync
// policies, where acknowledged rows can be lost) — are skipped with a log
// line rather than failing recovery: the rows matter more than one
// subscription.
func (s *Store) restoreSubs() {
	if len(s.man.Subs) == 0 && s.man.NextSub == 0 {
		return
	}
	rows := s.RowSource()
	restored := 0
	for _, e := range s.man.Subs {
		st, err := e.toState(s.dims)
		if err != nil {
			s.logf("store: dropping persisted subscription %d: %v", e.ID, err)
			continue
		}
		if err := s.reg.RestoreSub(st, rows); err != nil {
			s.logf("store: dropping persisted subscription %d: %v", e.ID, err)
			continue
		}
		restored++
	}
	s.reg.RestoreNextID(s.man.NextSub)
	if restored > 0 {
		s.logf("store: restored %d standing subscription(s)", restored)
	}
}

// markSubsDirty is the registry's onChange hook: wake the checkpointer to
// republish the manifest with the new registration set.
func (s *Store) markSubsDirty() {
	s.ckptMu.Lock()
	s.subsDirty = true
	s.ckptMu.Unlock()
	s.cond.Broadcast()
}

// SyncSubscriptions blocks until every pending registration change is
// durable in the manifest (and any queued checkpoints, which also carry the
// registration set, have landed). The wire layer calls it before
// acknowledging a subscribe or unsubscribe, so an acknowledged registration
// survives a crash.
func (s *Store) SyncSubscriptions() error {
	s.ckptMu.Lock()
	for s.subsDirty || s.busy || len(s.pending) > 0 {
		if s.stopped() {
			s.ckptMu.Unlock()
			return wal.ErrClosed
		}
		s.cond.Wait()
	}
	s.ckptMu.Unlock()
	return s.Err()
}

// observe feeds one committed row to the registry. Called after the WAL
// commit that made the row durable — subscribers never see a row that could
// vanish in a crash.
func (s *Store) observe(t int64, attrs []float64) {
	if s.reg == nil {
		return
	}
	if err := s.reg.Observe(t, attrs); err != nil {
		// Unreachable while appends stay strictly increasing (the engine
		// just accepted the row); logged so a registry bug cannot silently
		// starve subscribers.
		s.logf("store: subscription registry: %v", err)
	}
}
