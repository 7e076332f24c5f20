package topk

import (
	"math/rand"
	"testing"

	"repro/internal/data"
	"repro/internal/score"
)

// mirrorCase is one dataset under test together with what a mirrored probe
// must equal: an index built over its time-reversed copy.
type mirrorCase struct {
	ds     *data.Dataset
	rev    *Index      // over ds.ReversedInto: row r is ds row n-1-r at -time
	fwd    *Index      // over ds itself, probed mirrored
	pieces []memoPiece // ds cut into shards and forest views
	forest *Forest     // all of ds appended, its last rows still buffered
}

func newMirrorCase(rng *rand.Rand, ds *data.Dataset) *mirrorCase {
	n := ds.Len()
	mc := &mirrorCase{
		ds:     ds,
		rev:    Build(ds.ReversedInto(nil, nil), Options{LengthThreshold: 1 + rng.Intn(16)}),
		fwd:    Build(ds, Options{LengthThreshold: 1 + rng.Intn(16)}),
		pieces: memoPieces(rng, ds, 1+rng.Intn(6)),
		forest: NewForest(ds.Dims(), Options{LengthThreshold: 2 + rng.Intn(8)}),
	}
	for r := 0; r < n; r++ {
		if err := mc.forest.Append(ds.Time(r), ds.Attrs(r)); err != nil {
			panic(err)
		}
	}
	return mc
}

// mirrorProbe is one mirrored probe of forward rows [lo, hi): every record i
// in it is reported as id shift-i at time -Time(i).
type mirrorProbe struct {
	k, lo, hi, shift int
	via              int // 0 index, 1 forest, 2 a view of a prefix, 3 pieces
}

// want is the probe answered by the reversed copy's index: forward row i is
// its row n-1-i, so the copy's rows [n-hi, n-lo) under shift-(n-1).
func (pb mirrorProbe) want(mc *mirrorCase, s score.Scorer, sc *Scratch) []Item {
	n := mc.ds.Len()
	m := sc.Merger(pb.k)
	mc.rev.MergeRange(&m, s, n-pb.hi, n-pb.lo, pb.shift-(n-1))
	return m.Finish(nil)
}

func (pb mirrorProbe) got(mc *mirrorCase, s score.Scorer, sc *Scratch) []Item {
	m := sc.Merger(pb.k)
	switch pb.via {
	case 0:
		mc.fwd.MergeRangeMirrored(&m, s, pb.lo, pb.hi, pb.shift)
	case 1:
		mc.forest.MergeRangeMirrored(&m, s, pb.lo, pb.hi, pb.shift)
	case 2:
		mc.forest.Snapshot(pb.hi).MergeRangeMirrored(&m, s, pb.lo, pb.hi, pb.shift)
	default:
		// One merge continued across several indexes and views, walked newest
		// first: the answer must not depend on the order.
		for i := len(mc.pieces) - 1; i >= 0; i-- {
			p := &mc.pieces[i]
			a, z := max(pb.lo, p.lo), min(pb.hi, p.hi)
			if a >= z {
				continue
			}
			if p.idx != nil {
				p.idx.MergeRangeMirrored(&m, s, a-p.lo, z-p.lo, pb.shift-p.lo)
			} else {
				p.view.MergeRangeMirrored(&m, s, a-p.lo, z-p.lo, pb.shift-p.lo)
			}
		}
	}
	return m.Finish(nil)
}

func randMirrorProbes(rng *rand.Rand, n, count int) []mirrorProbe {
	probes := make([]mirrorProbe, count)
	for i := range probes {
		lo := rng.Intn(n)
		pb := mirrorProbe{k: 1 + rng.Intn(12), lo: lo, hi: lo + 1 + rng.Intn(n-lo), shift: rng.Intn(4000) - 1000, via: rng.Intn(4)}
		switch rng.Intn(4) {
		case 0: // at and beyond the range size
			pb.k = pb.hi - pb.lo + rng.Intn(5)
		case 1: // a window sliding down the rows, as a look-ahead evaluation probes
			w := 1 + rng.Intn(n)
			pb.lo = (i * 7) % n
			pb.hi = min(pb.lo+w, n)
		}
		probes[i] = pb
	}
	return probes
}

// TestMergeRangeMirroredMatchesReversedCopy is the mirrored merge's contract:
// for an index, a forest, a view of a forest's prefix (its unindexed buffer
// included) and a merge continued across several of them, a mirrored probe
// equals the forward probe of an index built on the time-reversed copy, bit
// for bit — on tie-heavy integer attributes, where only the mirrored tie order
// (earlier arrival first) decides, and on ±Inf scores; outside a memo session
// and inside one, where leaves are ranked in that order from their second
// visit on. Forward probes interleaved in the same session must stay right
// too: a leaf ranked for one direction is re-ranked for the other.
func TestMergeRangeMirroredMatchesReversedCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	single, err := score.NewSingle(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	scorers := []score.Scorer{
		score.MustLinear(1, 1),    // monotone: skyline bounds
		score.MustLinear(1, -0.5), // mixed signs: MBR bounds
		scalarOnly{score.MustLinear(2, 1)},
	}
	for trial := 0; trial < 60; trial++ {
		kind := []string{"ties", "ties", "inf"}[trial%3]
		n := 20 + rng.Intn(500)
		mc := newMirrorCase(rng, mergeDS(rng, kind, n))
		s := scorers[rng.Intn(len(scorers))]
		if kind == "inf" {
			s = single // ±Inf in one column: a sum could turn them into NaN
		}
		plain, memod, ref := GetScratch(), GetScratch(), GetScratch()
		memod.BeginMemo()
		for i, pb := range randMirrorProbes(rng, n, 50) {
			want := pb.want(mc, s, ref)
			if got := pb.got(mc, s, plain); !itemsIdentical(got, want) {
				t.Fatalf("trial %d (%s) probe %d %+v:\n got  %v\n want %v", trial, kind, i, pb, got, want)
			}
			if got := pb.got(mc, s, memod); !itemsIdentical(got, want) {
				t.Fatalf("trial %d (%s) probe %d %+v in a memo session:\n got  %v\n want %v", trial, kind, i, pb, got, want)
			}
			if i%5 == 4 {
				fwant := mc.fwd.QueryRangeInto(s, pb.k, pb.lo, pb.hi, ref, nil)
				if fgot := mc.fwd.QueryRangeInto(s, pb.k, pb.lo, pb.hi, memod, nil); !itemsIdentical(fgot, fwant) {
					t.Fatalf("trial %d (%s) forward probe after mirrored ones:\n got  %v\n want %v", trial, kind, fgot, fwant)
				}
			}
		}
		PutScratch(plain)
		PutScratch(memod)
		PutScratch(ref)
	}
}

// FuzzMergeRangeMirrored drives the same contract from fuzzer bytes: every
// byte pair is a record with two small-integer attributes (ties everywhere),
// and the tail of the input picks leaf sizes and the probes.
func FuzzMergeRangeMirrored(f *testing.F) {
	f.Add([]byte{3, 1, 3, 1, 2, 2, 0, 0, 3, 1, 3, 1, 1, 2, 7})
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 5, 200})
	f.Add([]byte{9, 0, 0, 9, 4, 4, 8, 1, 2, 7, 3, 3, 3, 3, 0, 0, 6, 6, 5, 5, 250, 13, 42, 7})
	f.Fuzz(func(t *testing.T, in []byte) {
		n := len(in) / 2
		if n < 2 || n > 2000 {
			return
		}
		times := make([]int64, n)
		rows := make([][]float64, n)
		tick := int64(0)
		for i := range rows {
			tick += 1 + int64(in[2*i]>>6)
			times[i] = tick
			rows[i] = []float64{float64(in[2*i] % 5), float64(in[2*i+1] % 4)}
		}
		seed := int64(0)
		for _, b := range in {
			seed = seed*31 + int64(b)
		}
		rng := rand.New(rand.NewSource(seed))
		mc := newMirrorCase(rng, data.MustNew(times, rows))
		s := []score.Scorer{score.MustLinear(1, 1), score.MustLinear(1, -0.5)}[int(in[0])%2]
		plain, memod, ref := GetScratch(), GetScratch(), GetScratch()
		defer PutScratch(plain)
		defer PutScratch(memod)
		defer PutScratch(ref)
		memod.BeginMemo()
		for i, pb := range randMirrorProbes(rng, n, 20) {
			want := pb.want(mc, s, ref)
			if got := pb.got(mc, s, plain); !itemsIdentical(got, want) {
				t.Fatalf("probe %d %+v:\n got  %v\n want %v", i, pb, got, want)
			}
			if got := pb.got(mc, s, memod); !itemsIdentical(got, want) {
				t.Fatalf("probe %d %+v in a memo session:\n got  %v\n want %v", i, pb, got, want)
			}
		}
	})
}
