package core

import (
	"slices"
	"sort"
)

// This file is the LSM leveling half of the live+sharded lifecycle: sealing
// (livesharded.go) produces a stream of small level-0 shards, and the
// background compactor here merges runs of adjacent same-level shards into
// exponentially larger shards one level up, bounding the live shard count —
// and with it the shards a probe walks and checkpoint manifest size — to
// O(CompactFanout · log n) on an unbounded stream. Retention (RetainSpan)
// retires whole ancient shards through the same publication path, so bounded
// deployments shed history without ever reshaping a shard in place.
//
// Both paths preserve the engine's epoch discipline: a merge or retirement is
// published as a new shardGroup epoch under the lifecycle lock, in-flight
// queries keep evaluating their pinned epoch, and EpochSeq bumps so
// whole-result caches invalidate by construction.

// findSealedLocked locates the sealed shard with exactly the range [lo, hi),
// if it is still live. Sealed shards tile ascending disjoint ranges, so a
// binary search on lo suffices. Caller holds mu.
func (e *LiveShardedEngine) findSealedLocked(lo, hi int) (int, bool) {
	i := sort.Search(len(e.sealed), func(i int) bool { return e.sealed[i].lo >= lo })
	if i < len(e.sealed) && e.sealed[i].lo == lo && e.sealed[i].hi == hi {
		return i, true
	}
	return 0, false
}

// planCompactionLocked returns the start index of the leftmost run of
// CompactFanout adjacent sealed shards sharing a level. Leftmost-first keeps
// merges oldest-history-first, so cascades promote bottom-up (a completed
// merge can immediately complete a run one level up). Caller holds mu.
func (e *LiveShardedEngine) planCompactionLocked() (int, bool) {
	f := e.so.CompactFanout
	if f < 2 {
		return 0, false
	}
	run := 1
	for i := 1; i < len(e.sealed); i++ {
		if e.sealed[i].level == e.sealed[i-1].level {
			if run++; run == f {
				return i - f + 1, true
			}
		} else {
			run = 1
		}
	}
	return 0, false
}

// maybeCompactLocked starts one background compaction if the planner finds a
// run and none is in flight. Caller holds mu.
//
// Like the seal freeze, the merge is two-phase so neither the appender nor
// queries ever wait on it: the merged static engine is built off the lock
// over the zero-copy global slice [lo, hi) — the constituents' rows are
// immutable, so the build races nothing — and installed under a short write
// lock when ready, re-pointed at the current global array if an append grew
// it meanwhile. Single-flight keeps at most one duplicate index build's
// worth of memory in flight and makes cascades strictly ordered; each
// install re-plans, so a backlog (e.g. after restore) drains one merge at a
// time until no run remains.
func (e *LiveShardedEngine) maybeCompactLocked() {
	if e.compacting {
		return
	}
	start, ok := e.planCompactionLocked()
	if !ok {
		return
	}
	run := e.sealed[start : start+e.so.CompactFanout]
	lo, hi := run[0].lo, run[len(run)-1].hi
	level := run[0].level + 1
	sub := e.global.Slice(lo, hi) // captured under mu: Slice reads mutable headers
	e.compacting = true
	e.compactWG.Add(1)
	go func() {
		defer e.compactWG.Done()
		eng := NewEngine(sub, e.opts)
		e.mu.Lock()
		e.installCompactedLocked(lo, hi, level, eng)
		e.compacting = false
		e.maybeCompactLocked() // cascade: the merge may have completed a run one level up
		e.mu.Unlock()
	}()
}

// installCompactedLocked swaps the sealed run tiling [lo, hi) for its merged
// level shard, publishing the change as a new epoch. The install aborts —
// discarding the built engine — if the constituents are no longer live
// (retention retired part of the range while the merge built); compaction is
// single-flight, so no other merge can have reshaped them. Caller holds mu.
func (e *LiveShardedEngine) installCompactedLocked(lo, hi, level int, eng *Engine) bool {
	a := sort.Search(len(e.sealed), func(i int) bool { return e.sealed[i].lo >= lo })
	if a == len(e.sealed) || e.sealed[a].lo != lo {
		return false
	}
	b := a
	for b < len(e.sealed) && e.sealed[b].hi <= hi {
		b++
	}
	if b == a || e.sealed[b-1].hi != hi {
		return false
	}
	merged := timeShard{lo: lo, hi: hi, eng: e.repointLocked(eng, lo, hi), level: level}
	// Replace zeroes the slots the splice vacates: a stale shard left past
	// len would keep its engine, and the column generation under it, alive.
	e.sealed = slices.Replace(e.sealed, a, b, merged)
	e.compactions++
	e.compactedRows += hi - lo
	e.seq++ // new epoch: future queries see the merged shard
	if e.so.OnCompact != nil {
		e.so.OnCompact(lo, hi, level)
	}
	return true
}

// maybeRetireLocked retires every sealed shard whose last arrival is older
// than latest − RetainSpan, always whole shards from the front of the
// timeline. Retired rows leave every future query epoch — answers match a
// batch engine over the retained suffix; the rows themselves stay in the
// global columnar storage (reclaiming their memory needs the base-offset
// storage design of ROADMAP item 5, "Memory that is the data").
// Caller holds mu.
func (e *LiveShardedEngine) maybeRetireLocked(latest int64) {
	if e.so.RetainSpan <= 0 {
		return
	}
	cutoff := latest - e.so.RetainSpan
	idx := 0
	for idx < len(e.sealed) && e.global.Time(e.sealed[idx].hi-1) < cutoff {
		idx++
	}
	if idx == 0 {
		return
	}
	lo, hi := e.sealed[0].lo, e.sealed[idx-1].hi
	e.sealed = append(e.sealed[:0:0], e.sealed[idx:]...)
	e.retiredLo = hi
	e.retires += idx
	e.retiredRows += hi - lo
	e.seq++ // new epoch: retired shards vanish from routing and evidence
	if e.so.OnRetire != nil {
		e.so.OnRetire(lo, hi)
	}
}

// WaitCompacted blocks until no background compaction is in flight and the
// planner finds no further run — the fully drained leveled state. Like
// WaitSealed, callers must not run it concurrently with appends that could
// seal (quiesce the stream first); cascades chain Add before Done, so a
// single Wait observes the whole chain.
func (e *LiveShardedEngine) WaitCompacted() {
	e.compactWG.Wait()
}

// Compactions returns the number of background merges installed so far.
func (e *LiveShardedEngine) Compactions() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.compactions
}

// CompactedRows returns the total rows merged across all compactions; a row
// merged at every level counts once per level, so CompactedRows/Len is the
// write-amplification of the leveling (bounded by the level count,
// O(log_fanout n)).
func (e *LiveShardedEngine) CompactedRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.compactedRows
}

// MaxLevel returns the highest level among live sealed shards (0 when none).
func (e *LiveShardedEngine) MaxLevel() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	level := 0
	for i := range e.sealed {
		if e.sealed[i].level > level {
			level = e.sealed[i].level
		}
	}
	return level
}

// RetiredRows returns the total rows retired by retention.
func (e *LiveShardedEngine) RetiredRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.retiredRows
}
