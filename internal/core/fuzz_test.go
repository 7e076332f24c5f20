package core

import (
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
	"repro/internal/topk"
)

// FuzzDurableTopK feeds arbitrary byte strings as (timestamps gaps, scores,
// parameters) and cross-checks T-Hop, S-Base and S-Hop against the
// brute-force oracle. Run `go test -fuzz FuzzDurableTopK ./internal/core`
// for continuous fuzzing; the seed corpus below runs as a normal test.
func FuzzDurableTopK(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1), uint8(5))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0}, uint8(2), uint8(1))
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 7}, uint8(3), uint8(30))
	f.Add([]byte{255}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, tauRaw uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			t.Skip()
		}
		// Decode bytes: low nibble = time gap (1..4), high nibble = score.
		b := data.NewBuilder(1, len(raw))
		tt := int64(0)
		for _, by := range raw {
			tt += int64(by&3) + 1
			if err := b.Append(tt, []float64{float64(by >> 4)}); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := int(kRaw%8) + 1
		tau := int64(tauRaw)
		lo, hi := ds.Span()
		s := score.MustLinear(1)
		want := BruteForce(ds, s, k, tau, lo, hi, LookBack)
		eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 4}})
		for _, alg := range []Algorithm{THop, SBase, SHop} {
			res, err := eng.DurableTopK(Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			got := res.IDs()
			if len(got) != len(want) {
				t.Fatalf("%v: %d records want %d (k=%d tau=%d n=%d)", alg, len(got), len(want), k, tau, ds.Len())
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v: got %v want %v", alg, got, want)
				}
			}
		}
	})
}

// FuzzLiveAppend fuzzes the live-ingestion invariant: arbitrary append
// streams with queries interleaved at arbitrary points must answer exactly
// like a batch engine rebuilt over the same prefix — and like the
// brute-force oracle. Each input byte is one appended record; the stride
// byte decides how often a query point is injected. Run
// `go test -fuzz FuzzLiveAppend ./internal/core` for continuous fuzzing;
// the seed corpus below runs as a normal test.
func FuzzLiveAppend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1), uint8(5), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0}, uint8(2), uint8(1), uint8(3))
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 7}, uint8(3), uint8(30), uint8(2))
	f.Add([]byte{8, 1, 8, 1, 8, 1, 8, 1, 8, 1, 8, 1}, uint8(2), uint8(200), uint8(4))
	f.Add([]byte{255}, uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, tauRaw, stride uint8) {
		if len(raw) == 0 || len(raw) > 256 {
			t.Skip()
		}
		k := int(kRaw%8) + 1
		tau := int64(tauRaw)
		every := int(stride%16) + 1
		s := score.MustLinear(1)
		opts := Options{Index: topk.Options{LengthThreshold: 4}}
		le, err := NewLiveEngine(1, opts, LiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Decode bytes: low nibble = time gap (1..4), high nibble = score.
		times := make([]int64, 0, len(raw))
		rows := make([][]float64, 0, len(raw))
		tt := int64(0)
		anchors := [2]Anchor{LookBack, LookAhead}
		for i, by := range raw {
			tt += int64(by&3) + 1
			times = append(times, tt)
			rows = append(rows, []float64{float64(by >> 4)})
			if _, _, err := le.Append(tt, rows[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every != 0 && i != len(raw)-1 {
				continue
			}
			// Query point: compare live vs batch-rebuilt vs oracle over the
			// prefix appended so far.
			ds, err := data.New(times[:i+1:i+1], rows[:i+1])
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := ds.Span()
			anchor := anchors[(i/every)%2]
			want := BruteForce(ds, s, k, tau, lo, hi, anchor)
			batch := NewEngine(ds, opts)
			q := Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Anchor: anchor, Algorithm: SHop}
			wantRes, err := batch.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := le.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.IDs(), want) && !(len(got.IDs()) == 0 && len(want) == 0) {
				t.Fatalf("live vs oracle at prefix %d: k=%d tau=%d anchor=%v\n got %v\nwant %v",
					i+1, k, tau, anchor, got.IDs(), want)
			}
			if !reflect.DeepEqual(got.Records, wantRes.Records) {
				t.Fatalf("live vs batch at prefix %d: k=%d tau=%d anchor=%v\n got %v\nwant %v",
					i+1, k, tau, anchor, got.Records, wantRes.Records)
			}
		}
	})
}

// FuzzLiveShardedAppend fuzzes the seal/freeze lifecycle invariant: arbitrary
// append streams routed through a LiveShardedEngine under arbitrary (small)
// seal thresholds, with queries interleaved at arbitrary points, must answer
// exactly like a batch engine rebuilt over the same prefix — and like the
// brute-force oracle. cfg bit 4 switches the seal rule from rows to time
// span (bits 5-7 once chose a straddler path and a worker count and are
// ignored, so committed seeds keep their meaning); query points that coincide
// with a seal
// boundary (the seed corpus pins several) exercise the just-sealed empty
// tail. Run `go test -fuzz FuzzLiveShardedAppend ./internal/core` for
// continuous fuzzing; the seed corpus below runs as a normal test.
func FuzzLiveShardedAppend(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1), uint8(5), uint8(2), uint8(1))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0}, uint8(2), uint8(1), uint8(3), uint8(3))
	// Seal boundary pins: sealRows divides the stream length and the query
	// stride, so queries land exactly on freshly sealed (empty-tail) epochs.
	f.Add([]byte{8, 1, 8, 1, 8, 1, 8, 1, 8, 1, 8, 1}, uint8(2), uint8(200), uint8(3), uint8(1))
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 7, 16, 32, 64}, uint8(3), uint8(30), uint8(3), uint8(3))
	f.Add([]byte{3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7}, uint8(1), uint8(4), uint8(1), uint8(32|1))
	// Span-triggered seals (bit 4), tiny span so boundaries are dense.
	f.Add([]byte{240, 16, 240, 16, 240, 16, 240, 16}, uint8(3), uint8(4), uint8(2), uint8(16|2))
	f.Add([]byte{255}, uint8(1), uint8(0), uint8(0), uint8(0))
	// Wide windows under tied scores: 5-row seals and tau 20 put every
	// window across >= 3 sealed shards plus the live tail (query points at rows 8, 16, ... never sit on a seal boundary),
	// look-back and look-ahead alternating; the second stream seals by span.
	f.Add(tiedStream(44), uint8(1), uint8(20), uint8(4), uint8(32|7))
	f.Add(tiedStream(60), uint8(2), uint8(33), uint8(6), uint8(32|16|4))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, tauRaw, sealRaw, cfg uint8) {
		if len(raw) == 0 || len(raw) > 256 {
			t.Skip()
		}
		k := int(kRaw%8) + 1
		tau := int64(tauRaw)
		every := int(cfg%16) + 1
		var so LiveShardOptions
		if cfg&16 != 0 {
			so.SealSpan = int64(sealRaw%12) + 1
		} else {
			so.SealRows = int(sealRaw%12) + 1
		}
		s := score.MustLinear(1)
		opts := Options{Index: topk.Options{LengthThreshold: 4}}
		lse, err := NewLiveShardedEngine(1, opts, LiveOptions{}, so)
		if err != nil {
			t.Fatal(err)
		}
		// Decode bytes: low nibble = time gap (1..4), high nibble = score.
		times := make([]int64, 0, len(raw))
		rows := make([][]float64, 0, len(raw))
		tt := int64(0)
		anchors := [2]Anchor{LookBack, LookAhead}
		for i, by := range raw {
			tt += int64(by&3) + 1
			times = append(times, tt)
			rows = append(rows, []float64{float64(by >> 4)})
			if _, _, err := lse.Append(tt, rows[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every != 0 && i != len(raw)-1 {
				continue
			}
			if (i/every)%3 == 2 {
				// Forced seal right before the query: the interval often sits
				// entirely inside the now-empty tail's time range.
				lse.Seal()
			}
			// Query point: live-sharded vs batch-rebuilt vs oracle over the
			// prefix appended so far.
			ds, err := data.New(times[:i+1:i+1], rows[:i+1])
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := ds.Span()
			anchor := anchors[(i/every)%2]
			want := BruteForce(ds, s, k, tau, lo, hi, anchor)
			batch := NewEngine(ds, opts)
			q := Query{K: k, Tau: tau, Start: lo, End: hi, Scorer: s, Anchor: anchor, Algorithm: SHop}
			wantRes, err := batch.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lse.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.IDs(), want) && !(len(got.IDs()) == 0 && len(want) == 0) {
				t.Fatalf("live-sharded vs oracle at prefix %d: k=%d tau=%d anchor=%v seals=%d shards=%d\n got %v\nwant %v",
					i+1, k, tau, anchor, lse.Seals(), lse.NumShards(), got.IDs(), want)
			}
			if !reflect.DeepEqual(got.Records, wantRes.Records) {
				t.Fatalf("live-sharded vs batch at prefix %d: k=%d tau=%d anchor=%v seals=%d\n got %v\nwant %v",
					i+1, k, tau, anchor, lse.Seals(), got.Records, wantRes.Records)
			}
		}
	})
}

// FuzzCompaction fuzzes the LSM half of the lifecycle: arbitrary append
// streams under tiny seal thresholds and fanouts 2..5, with retention
// optionally shearing ancient shards off the front (cfg bit 6; bit 3 once
// chose a straddler path and is ignored), must answer
// exactly like a batch engine rebuilt over the retained suffix of the same
// prefix. Queries run right after quiescing the compactor, so they land on
// freshly swapped levels; the seed corpus pins streams whose seal counts sit
// exactly at level boundaries (fanout^i seals), where the cascade chains
// merges back-to-back. Run `go test -fuzz FuzzCompaction ./internal/core`
// for continuous fuzzing; the seed corpus below runs as a normal test.
func FuzzCompaction(f *testing.F) {
	// 8 seals of 2 rows at fanout 2: the 2^3 level boundary — the final seal
	// triggers a three-merge cascade into one level-3 shard.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(2), uint8(5), uint8(0), uint8(0))
	// 9 seals of 1 row at fanout 3: 3^2 boundary, double cascade.
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(1), uint8(3), uint8(16), uint8(1))
	// 4 seals at fanout 4: single wide merge exactly at the boundary.
	f.Add([]byte{8, 1, 8, 1, 8, 1, 8, 1}, uint8(2), uint8(200), uint8(32), uint8(2))
	// One row past a level boundary: a lone level-0 shard trails the merge.
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 7, 16}, uint8(3), uint8(30), uint8(0), uint8(1))
	// Retention on (bit 6): tiny span plus large gaps retires mid-stream.
	f.Add([]byte{3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7, 3, 7}, uint8(1), uint8(4), uint8(64|1), uint8(3))
	f.Add([]byte{255}, uint8(1), uint8(0), uint8(64), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, tauRaw, cfg, sealRaw uint8) {
		if len(raw) == 0 || len(raw) > 256 {
			t.Skip()
		}
		k := int(kRaw%8) + 1
		tau := int64(tauRaw)
		every := int(cfg%8) + 1
		so := LiveShardOptions{
			SealRows:      int(sealRaw%6) + 1,
			CompactFanout: 2 + int(cfg>>4&3),
		}
		if cfg&64 != 0 {
			so.RetainSpan = 8 + int64(tauRaw%32)
		}
		s := score.MustLinear(1)
		opts := Options{Index: topk.Options{LengthThreshold: 4}}
		lse, err := NewLiveShardedEngine(1, opts, LiveOptions{}, so)
		if err != nil {
			t.Fatal(err)
		}
		// Decode bytes: low nibble = time gap (1..4), high nibble = score.
		times := make([]int64, 0, len(raw))
		rows := make([][]float64, 0, len(raw))
		tt := int64(0)
		anchors := [2]Anchor{LookBack, LookAhead}
		for i, by := range raw {
			tt += int64(by&3) + 1
			times = append(times, tt)
			rows = append(rows, []float64{float64(by >> 4)})
			if _, _, err := lse.Append(tt, rows[i]); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every != 0 && i != len(raw)-1 {
				continue
			}
			// Quiesce: freeze builds and the whole merge cascade land before
			// the query, so it evaluates the compacted level layout.
			lse.WaitSealed()
			lse.WaitCompacted()
			lo := lse.RetiredRows()
			if lo > i {
				continue // everything sealed so far retired; nothing to compare
			}
			ds, err := data.New(times[lo:i+1:i+1], rows[lo:i+1])
			if err != nil {
				t.Fatal(err)
			}
			qlo, qhi := ds.Span()
			anchor := anchors[(i/every)%2]
			want := BruteForce(ds, s, k, tau, qlo, qhi, anchor)
			batch := NewEngine(ds, opts)
			q := Query{K: k, Tau: tau, Start: qlo, End: qhi, Scorer: s, Anchor: anchor, Algorithm: SHop}
			wantRes, err := batch.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := lse.DurableTopK(q)
			if err != nil {
				t.Fatal(err)
			}
			gotIDs := got.IDs()
			for j := range gotIDs {
				gotIDs[j] -= lo // stream-global -> suffix-relative
			}
			if !reflect.DeepEqual(gotIDs, want) && !(len(gotIDs) == 0 && len(want) == 0) {
				t.Fatalf("compacted vs oracle at prefix %d: k=%d tau=%d anchor=%v fanout=%d retain=%d compactions=%d retired=%d shards=%d\n got %v\nwant %v",
					i+1, k, tau, anchor, so.CompactFanout, so.RetainSpan, lse.Compactions(), lo, lse.NumShards(), gotIDs, want)
			}
			if len(got.Records) != len(wantRes.Records) {
				t.Fatalf("compacted vs batch at prefix %d: %d records want %d", i+1, len(got.Records), len(wantRes.Records))
			}
			for j := range got.Records {
				g, w := got.Records[j], wantRes.Records[j]
				w.ID += lo
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("compacted vs batch at prefix %d record %d: got %+v want %+v (retired=%d)", i+1, j, g, w, lo)
				}
			}
		}
		// Compaction must never lose or duplicate a row: live shards plus
		// the retired prefix tile the whole stream.
		lse.WaitSealed()
		lse.WaitCompacted()
		prev := lse.RetiredRows()
		for _, in := range lse.Shards() {
			if in.Lo != prev {
				t.Fatalf("shard layout gap at %d, want %d: %+v", in.Lo, prev, lse.Shards())
			}
			prev = in.Hi
		}
		if prev != len(raw) {
			t.Fatalf("shards + retired tile [?,%d), want [?,%d)", prev, len(raw))
		}
	})
}

// tiedStream is a fuzz-corpus stream of n consecutive arrivals (gap 1) whose
// scores cycle through three values, so nearly every comparison is a tie the
// recency rule must break.
func tiedStream(n int) []byte {
	raw := make([]byte, n)
	for i := range raw {
		raw[i] = byte(1+i%3) << 4
	}
	return raw
}

// FuzzShardedQuery fuzzes the shard-boundary invariants of ShardedEngine:
// arbitrary datasets and shard counts against the single-engine and
// brute-force answers, with the interval optionally pinned exactly onto a
// shard boundary arrival and often narrower than one shard (cfg bit 1 once
// chose a straddler path and bits 2-3 a worker count; those readings are gone,
// not re-packed, so committed seeds keep their meaning). Run
// `go test -fuzz FuzzShardedQuery ./internal/core` for continuous fuzzing;
// the seed corpus below runs as a normal test.
func FuzzShardedQuery(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(1), uint8(5), uint8(3), uint8(0), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 0, 0, 0}, uint8(2), uint8(1), uint8(2), uint8(1), uint8(4))
	f.Add([]byte{0, 255, 0, 255, 7, 7, 7, 7, 7}, uint8(3), uint8(30), uint8(16), uint8(3), uint8(9))
	f.Add([]byte{255, 4, 129}, uint8(1), uint8(0), uint8(1), uint8(7), uint8(2))
	f.Add([]byte{8, 1, 8, 1, 8, 1, 8, 1, 8, 1, 8, 1}, uint8(2), uint8(200), uint8(5), uint8(5), uint8(0))
	// Window-reach edge cases: the interval pinned so the back-reach (cfg
	// bit 5) or lead-reach (cfg bit 5 + look-ahead) lands exactly on a shard
	// boundary arrival — the alignments the reach-based shard pruning must
	// not get wrong by one tick.
	f.Add([]byte{3, 7, 3, 7, 3, 7, 3, 7, 3, 7}, uint8(2), uint8(2), uint8(4), uint8(8|32), uint8(1))
	f.Add([]byte{3, 7, 3, 7, 3, 7, 3, 7, 3, 7}, uint8(2), uint8(3), uint8(4), uint8(8|32|1), uint8(2))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(1), uint8(1), uint8(6), uint8(8|32|2), uint8(3))
	f.Add([]byte{240, 16, 240, 16, 240, 16, 240, 16}, uint8(3), uint8(4), uint8(3), uint8(8|32|16), uint8(1))
	// Wide windows under tied scores: 8 shards of 6 rows and a tau of 2.5 to
	// 7 shard widths, so every window covers >= 3 shards; look-back, look-ahead (bit 0), and by-time-span
	// cuts (bit 4). tauRaw also sets the interval: 20..40 of the 47 ticks.
	f.Add(tiedStream(48), uint8(1), uint8(20), uint8(7), uint8(2), uint8(0))
	f.Add(tiedStream(48), uint8(2), uint8(40), uint8(7), uint8(2|1), uint8(3))
	f.Add(tiedStream(48), uint8(3), uint8(15), uint8(7), uint8(2|1|16), uint8(9))
	f.Fuzz(func(t *testing.T, raw []byte, kRaw, tauRaw, shardRaw, cfg, pin uint8) {
		if len(raw) == 0 || len(raw) > 512 {
			t.Skip()
		}
		// Decode bytes: low nibble = time gap (1..4), high nibble = score.
		b := data.NewBuilder(1, len(raw))
		tt := int64(0)
		for _, by := range raw {
			tt += int64(by&3) + 1
			if err := b.Append(tt, []float64{float64(by >> 4)}); err != nil {
				t.Fatal(err)
			}
		}
		ds, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		k := int(kRaw%8) + 1
		tau := int64(tauRaw)
		anchor := LookBack
		if cfg&1 != 0 {
			anchor = LookAhead
		}
		se := NewShardedEngine(ds, Options{Index: topk.Options{LengthThreshold: 4}}, ShardOptions{
			Shards:   int(shardRaw%20) + 1,
			Strategy: ShardStrategy(cfg >> 4 & 1),
		})

		// The interval: pinned exactly onto a shard-boundary arrival (the
		// hardest alignment), or an arbitrary — often sub-shard-width — cut
		// of the time domain.
		lo, hi := ds.Span()
		var start, end int64
		infos := se.Shards()
		if cfg&8 != 0 {
			in := infos[int(pin)%len(infos)]
			start = in.Start
			if cfg&32 != 0 {
				// Window-reach pin: shift I so the durability window of a
				// record arriving at start reaches exactly to the shard
				// boundary arrival — back-reach for look-back anchors
				// (start = boundary + tau), lead-reach for look-ahead
				// (start = boundary - tau).
				if anchor == LookAhead {
					start = satSub(in.Start, tau)
					if start < lo {
						start = lo
					}
				} else {
					start = satAdd(in.Start, tau)
					if start > hi {
						start = hi
					}
				}
			}
			end = start + int64(pin%16)
			if cfg&16 != 0 {
				end = in.End // exactly one whole shard
			}
			if end > hi {
				end = hi
			}
		} else {
			span := hi - lo
			start = lo + int64(pin)%(span+1)
			end = start + int64(tauRaw)%(span-start+int64(lo)+1)
			if end > hi {
				end = hi
			}
		}
		if start > end {
			start, end = end, start
		}

		s := score.MustLinear(1)
		want := BruteForce(ds, s, k, tau, start, end, anchor)
		q := Query{K: k, Tau: tau, Start: start, End: end, Scorer: s, Anchor: anchor}
		eng := NewEngine(ds, Options{Index: topk.Options{LengthThreshold: 4}})
		single, err := eng.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := se.DurableTopK(q)
		if err != nil {
			t.Fatal(err)
		}
		got := res.IDs()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sharded (shards=%d) vs oracle: k=%d tau=%d I=[%d,%d] anchor=%v n=%d\n got %v\nwant %v",
				se.NumShards(), k, tau, start, end, anchor, ds.Len(), got, want)
		}
		if !reflect.DeepEqual(got, single.IDs()) {
			t.Fatalf("sharded vs single engine: got %v want %v", got, single.IDs())
		}
	})
}
