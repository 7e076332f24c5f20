// Package sub maintains standing durable top-k queries over a live append
// stream — the "continuous top-k" serving mode of Vouzoukidou et al. that
// the ROADMAP targets. Clients register subscriptions (scorer, k, tau,
// optional interval filter); every append then yields per-subscription
// verdicts from a dedicated online monitor: an instant look-back Decision
// for the new record and delayed look-ahead Confirmations for past records
// whose windows closed.
//
// The registry shares per-append work across subscriptions: all
// subscriptions whose scorers have the same canonical key
// (score.CanonicalKey) form a group that scores each arrival exactly once,
// fanning the value out through monitor.ObserveScored. Subscriptions are
// keyed to the engine's absolute row count ("prefix"): every emitted event
// names the exact acknowledged prefix it corresponds to, so a consumer can
// reproduce any verdict bit-identically by re-running the equivalent
// durable query over that prefix.
//
// Verdicts are a deterministic function of (spec, committed row stream).
// The registry leans on that everywhere it must bridge a delivery gap:
// instead of buffering undelivered events it re-derives them by replaying
// committed rows through a fresh monitor — for reattaching a detached
// subscription past the prefix the consumer last saw (ResumeNotify), and for
// rebuilding registrations from a checkpoint manifest after a restart
// (RestoreSub).
// Every event carries a per-subscription sequence number that is part of
// the same deterministic stream, so consumers can prove gap-freedom.
//
// The registry is engine-agnostic on purpose: it consumes the committed
// append stream (Observe) and does not care whether rows land in a
// LiveEngine or a LiveShardedEngine, nor when shards seal or freeze —
// those only bump the engine's epoch, never reorder or drop committed
// rows, so monitor state carries across seals untouched.
package sub

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/monitor"
	"repro/internal/score"
)

// Source is the persistable description of a subscription's scorer: either
// linear weights or a compiled expression with its attribute names. The
// registry never interprets it — the layer that registered the scorer fills
// it in, and the layer that restores from a checkpoint recompiles it.
type Source struct {
	Weights []float64
	Expr    string
	Names   []string
}

// Spec describes one standing query.
type Spec struct {
	Scorer score.Scorer
	K      int
	Tau    int64

	// Bounded restricts pushed verdicts to records whose arrival time lies
	// in [Start, End]; the monitor still observes every append to keep its
	// windows exact.
	Bounded    bool
	Start, End int64

	// Decisions pushes the instant look-back verdict per append; Confirms
	// pushes the delayed look-ahead verdicts. At least one must be set.
	Decisions bool
	Confirms  bool

	// Source, when non-nil, makes the subscription durable: it is the
	// recipe a restart uses to recompile Scorer. Subscriptions without a
	// Source are skipped by Snapshot and die with the process.
	Source *Source
}

// Event is one batch of verdicts for one subscription, produced by a single
// append (or by Unsubscribe/Close, which flush truncated confirmations).
// Record IDs are absolute dataset row indices.
type Event struct {
	SubID uint64
	// Prefix is the engine's committed row count immediately after the
	// append this event describes. Each subscription produces at most one
	// event per append, so Prefix doubles as a deduplication key on every
	// stream except the final teardown flush (which reuses the last
	// prefix).
	Prefix int
	// Seq numbers this subscription's events 1, 2, 3, … from its base
	// prefix, counting only events that carried verdicts (silent appends
	// do not consume a number). It is derived from the committed stream,
	// so a replay reproduces the same numbering — consumers check
	// contiguity to prove no event was dropped.
	Seq      uint64
	Decision *monitor.Decision
	Confirms []monitor.Confirmation
}

// Emit delivers one event to a subscriber. Called with the registry lock
// held, so implementations must not call back into the registry and should
// hand off quickly (enqueue, not write).
type Emit func(Event)

// RowSource replays committed rows [lo, hi) in commit order through
// observe, stopping at the first error. The registry calls it with its lock
// held, so implementations must not call back into the registry; reading an
// engine's append-stable dataset snapshot is the intended shape.
type RowSource func(lo, hi int, observe func(t int64, attrs []float64) error) error

// Registry multiplexes many standing queries over one append stream.
type Registry struct {
	mu       sync.Mutex
	next     uint64
	prefix   int
	subs     map[uint64]*entry
	groups   map[string]*group // canonical scorer key → shared-scoring group
	closed   bool
	onChange func()
}

type group struct {
	scorer  score.Scorer
	members map[uint64]*entry
}

type entry struct {
	id   uint64
	spec Spec
	base int // absolute row index the monitor's local id 0 maps to
	mon  *monitor.Monitor
	seq  uint64 // sequence number of the last event produced (delivered or not)
	// acked is the prefix of the last event handed to an attached emitter —
	// a best-effort resume hint persisted in checkpoints; the consumer's
	// own fromPrefix is authoritative on resume.
	acked int
	emit  Emit // nil while detached: events are discarded, seq still advances
	key   string
}

// NewRegistry returns a registry attached at the given committed row count.
func NewRegistry(prefix int) *Registry {
	return &Registry{
		prefix: prefix,
		subs:   make(map[uint64]*entry),
		groups: make(map[string]*group),
	}
}

var (
	ErrClosed     = errors.New("sub: registry closed")
	ErrNotFound   = errors.New("sub: no such subscription")
	ErrNoVerdicts = errors.New("sub: subscription must request decisions or confirmations")
)

// SetOnChange installs a hook fired (outside the registry lock) after every
// mutation of the registration set — subscribe, unsubscribe, restore — so a
// persistence layer can re-publish its manifest. At most one hook; nil
// clears it.
func (r *Registry) SetOnChange(fn func()) {
	r.mu.Lock()
	r.onChange = fn
	r.mu.Unlock()
}

func (r *Registry) notify(fn func()) {
	if fn != nil {
		fn()
	}
}

func validateSpec(spec Spec, emit Emit) error {
	if !spec.Decisions && !spec.Confirms {
		return ErrNoVerdicts
	}
	if spec.Bounded && spec.Start > spec.End {
		return errors.New("sub: interval start must be <= end")
	}
	if emit == nil {
		return errors.New("sub: emit must not be nil")
	}
	return nil
}

// Subscribe registers a standing query and returns its id. Events flow to
// emit from the next Observe on; the subscription's monitor starts at the
// current prefix, so verdicts are relative to arrivals from this point.
func (r *Registry) Subscribe(spec Spec, emit Emit) (uint64, error) {
	if err := validateSpec(spec, emit); err != nil {
		return 0, err
	}
	mon, err := monitor.New(spec.K, spec.Tau, spec.Scorer, monitor.Options{TrackAhead: spec.Confirms})
	if err != nil {
		return 0, fmt.Errorf("sub: %w", err)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	r.next++
	e := &entry{id: r.next, spec: spec, base: r.prefix, acked: r.prefix, mon: mon, emit: emit}
	r.registerLocked(e)
	fn := r.onChange
	r.mu.Unlock()
	r.notify(fn)
	return e.id, nil
}

// registerLocked slots e into the id table and its scoring group.
func (r *Registry) registerLocked(e *entry) {
	if key, ok := score.CanonicalKey(e.spec.Scorer); ok {
		e.key = key
		g := r.groups[key]
		if g == nil {
			g = &group{scorer: e.spec.Scorer, members: make(map[uint64]*entry)}
			r.groups[key] = g
		}
		g.members[e.id] = e
	} else {
		// Unkeyed scorers score per subscription; park them in a private
		// group under an unshareable synthetic key.
		key := fmt.Sprintf("\x00unkeyed:%d", e.id)
		e.key = key
		r.groups[key] = &group{scorer: e.spec.Scorer, members: map[uint64]*entry{e.id: e}}
	}
	r.subs[e.id] = e
}

// replay feeds committed rows [lo, hi) through the entry's monitor and
// hands every produced event (with its deterministic sequence number) to
// fn. Caller holds the registry lock.
func (e *entry) replay(lo, hi int, rows RowSource, fn func(Event)) error {
	if lo >= hi {
		return nil
	}
	prefix := lo
	return rows(lo, hi, func(t int64, attrs []float64) error {
		dec, confs, err := e.mon.Observe(t, attrs)
		if err != nil {
			return fmt.Errorf("row %d: %w", prefix, err)
		}
		prefix++
		if ev := e.event(prefix, t, dec, confs); ev != nil {
			e.seq++
			ev.Seq = e.seq
			if fn != nil {
				fn(*ev)
			}
		}
		return nil
	})
}

// deliver stamps the already-sequenced event as acknowledged and emits it.
func (e *entry) deliver(ev Event) {
	if e.emit == nil {
		return
	}
	e.emit(ev)
	e.acked = ev.Prefix
}

// Detach disconnects a subscription's emitter without dropping its
// registration: the monitor keeps observing and sequence numbers keep
// advancing, but events are discarded until ResumeNotify reattaches a
// consumer.
// This is how a durable subscription survives its connection.
func (r *Registry) Detach(id uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.subs[id]
	if !ok {
		return ErrNotFound
	}
	e.emit = nil
	return nil
}

// ResumeNotify reattaches a consumer to a registered subscription. Events
// the consumer missed — everything past fromPrefix, whether discarded while
// detached or lost in flight — are re-derived by replaying the committed
// rows [base, prefix) through a throwaway monitor and emitted before the
// subscription goes live again, with the same sequence numbers the
// originals carried. Returns the subscription's base prefix. Appends stall
// during the replay (registry lock), buying an exactly-once splice.
//
// ready (when non-nil) runs once validation and the shadow replay have
// succeeded — the resume is at that point certain to complete — but before
// the backlog is delivered through emit. A server uses it to put its acknowledgment on the wire ahead
// of the replayed events, so the consumer can record progress incrementally
// as the backlog arrives instead of seeing nothing until a potentially large
// replay has fully flushed (on a flaky connection that ordering would starve
// resume of progress entirely). The hook runs under the registry lock: it
// must not block and must not call back into the registry.
func (r *Registry) ResumeNotify(id uint64, fromPrefix int, emit Emit, rows RowSource, ready func(base int)) (int, error) {
	if emit == nil {
		return 0, errors.New("sub: emit must not be nil")
	}
	if rows == nil {
		return 0, errors.New("sub: row source must not be nil")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrClosed
	}
	e, ok := r.subs[id]
	if !ok {
		r.mu.Unlock()
		return 0, ErrNotFound
	}
	if fromPrefix < 0 || fromPrefix > r.prefix {
		n := r.prefix
		r.mu.Unlock()
		return 0, fmt.Errorf("sub: fromPrefix %d outside committed prefix [0, %d]", fromPrefix, n)
	}
	mon, err := monitor.New(e.spec.K, e.spec.Tau, e.spec.Scorer, monitor.Options{TrackAhead: e.spec.Confirms})
	if err != nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("sub: %w", err)
	}
	// A shadow entry replays the full deterministic stream; only the part
	// past fromPrefix is delivered. The live entry's monitor is already
	// current and must not observe anything twice.
	shadow := &entry{id: e.id, spec: e.spec, base: e.base, mon: mon}
	var backlog []Event
	if err := shadow.replay(e.base, r.prefix, rows, func(ev Event) {
		if ev.Prefix > fromPrefix {
			backlog = append(backlog, ev)
		}
	}); err != nil {
		r.mu.Unlock()
		return 0, fmt.Errorf("sub: resume replay: %w", err)
	}
	if shadow.seq != e.seq {
		r.mu.Unlock()
		return 0, fmt.Errorf("sub: resume replay diverged: rebuilt seq %d, live seq %d", shadow.seq, e.seq)
	}
	if ready != nil {
		ready(e.base)
	}
	e.emit = emit
	for _, ev := range backlog {
		e.deliver(ev)
	}
	base := e.base
	r.mu.Unlock()
	return base, nil
}

// State is the persistable snapshot of one registration.
type State struct {
	ID    uint64
	Spec  Spec
	Base  int
	Acked int
}

// Snapshot returns the durable registrations (those carrying a scorer
// Source), for a persistence layer to write alongside its checkpoint
// manifest.
func (r *Registry) Snapshot() []State {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]State, 0, len(r.subs))
	for _, e := range r.subs {
		if e.spec.Source == nil {
			continue
		}
		out = append(out, State{ID: e.id, Spec: e.spec, Base: e.base, Acked: e.acked})
	}
	return out
}

// NextID returns the last subscription id handed out. Persisting it across
// restarts keeps retired ids from being reissued to unrelated
// subscriptions, which would alias resumes.
func (r *Registry) NextID() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// RestoreNextID raises the id counter to at least n.
func (r *Registry) RestoreNextID(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n > r.next {
		r.next = n
	}
}

// RestoreSub rebuilds a registration from a persisted State: the monitor is
// reconstructed by silently replaying committed rows [st.Base, prefix) —
// re-deriving, not re-delivering, so sequence numbers land exactly where
// they stood — and the subscription is registered detached, waiting for a
// ResumeNotify. st.Spec.Scorer must already be recompiled from its Source.
func (r *Registry) RestoreSub(st State, rows RowSource) error {
	if !st.Spec.Decisions && !st.Spec.Confirms {
		return ErrNoVerdicts
	}
	if st.Spec.Scorer == nil {
		return errors.New("sub: restore requires a recompiled scorer")
	}
	if rows == nil {
		return errors.New("sub: row source must not be nil")
	}
	mon, err := monitor.New(st.Spec.K, st.Spec.Tau, st.Spec.Scorer, monitor.Options{TrackAhead: st.Spec.Confirms})
	if err != nil {
		return fmt.Errorf("sub: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if _, dup := r.subs[st.ID]; dup {
		return fmt.Errorf("sub: restore: id %d already registered", st.ID)
	}
	if st.Base < 0 || st.Base > r.prefix {
		return fmt.Errorf("sub: restore: base %d outside committed prefix [0, %d]", st.Base, r.prefix)
	}
	e := &entry{id: st.ID, spec: st.Spec, base: st.Base, acked: st.Acked, mon: mon}
	if err := e.replay(st.Base, r.prefix, rows, nil); err != nil {
		return fmt.Errorf("sub: restore replay: %w", err)
	}
	r.registerLocked(e)
	if st.ID > r.next {
		r.next = st.ID
	}
	return nil
}

// Unsubscribe drops a subscription. If it tracked confirmations, the still
// pending look-ahead candidates are flushed as one final event, marked
// Truncated — nothing observed refuted them, but their windows were cut
// short (monitor.Finish semantics).
func (r *Registry) Unsubscribe(id uint64) error {
	r.mu.Lock()
	err := r.dropLocked(id)
	fn := r.onChange
	r.mu.Unlock()
	if err == nil {
		r.notify(fn)
	}
	return err
}

func (r *Registry) dropLocked(id uint64) error {
	e, ok := r.subs[id]
	if !ok {
		return ErrNotFound
	}
	delete(r.subs, id)
	if g := r.groups[e.key]; g != nil {
		delete(g.members, id)
		if len(g.members) == 0 {
			delete(r.groups, e.key)
		}
	}
	if final := e.finalEvent(r.prefix); final != nil {
		e.seq++
		final.Seq = e.seq
		e.deliver(*final)
	}
	return nil
}

// Close drops every subscription, flushing truncated confirmations.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for id := range r.subs {
		_ = r.dropLocked(id)
	}
}

// Observe ingests one committed append. The caller must present every
// committed row exactly once, in commit order; times are strictly
// increasing (enforced by the engines upstream and re-checked by each
// monitor).
func (r *Registry) Observe(t int64, attrs []float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	r.prefix++
	for _, g := range r.groups {
		sc := g.scorer.Score(attrs)
		for _, e := range g.members {
			dec, confs, err := e.mon.ObserveScored(t, sc)
			if err != nil {
				return fmt.Errorf("sub: subscription %d: %w", e.id, err)
			}
			if ev := e.event(r.prefix, t, dec, confs); ev != nil {
				e.seq++
				ev.Seq = e.seq
				e.deliver(*ev)
			}
		}
	}
	return nil
}

// event assembles the filtered, id-translated event for one append, or nil
// when nothing passes the subscription's filters.
func (e *entry) event(prefix int, t int64, dec monitor.Decision, confs []monitor.Confirmation) *Event {
	ev := Event{SubID: e.id, Prefix: prefix}
	if e.spec.Decisions && e.inInterval(t) {
		dec.ID += e.base
		ev.Decision = &dec
	}
	if e.spec.Confirms {
		for _, c := range confs {
			if !e.inInterval(c.Time) {
				continue
			}
			c.ID += e.base
			ev.Confirms = append(ev.Confirms, c)
		}
	}
	if ev.Decision == nil && len(ev.Confirms) == 0 {
		return nil
	}
	return &ev
}

// finalEvent flushes the monitor's pending candidates on teardown, or nil
// if nothing was pending or confirmations were not requested.
func (e *entry) finalEvent(prefix int) *Event {
	if !e.spec.Confirms {
		return nil
	}
	ev := Event{SubID: e.id, Prefix: prefix}
	for _, c := range e.mon.Finish() {
		if !e.inInterval(c.Time) {
			continue
		}
		c.ID += e.base
		ev.Confirms = append(ev.Confirms, c)
	}
	if len(ev.Confirms) == 0 {
		return nil
	}
	return &ev
}

func (e *entry) inInterval(t int64) bool {
	return !e.spec.Bounded || (t >= e.spec.Start && t <= e.spec.End)
}

// Len returns the number of active subscriptions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// Groups returns the number of shared-scoring groups currently active —
// subscriptions with the same canonical scorer count once.
func (r *Registry) Groups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.groups)
}

// Prefix returns the committed row count the registry has observed through.
func (r *Registry) Prefix() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prefix
}
