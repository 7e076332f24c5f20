package planner

import (
	"strings"
	"testing"
	"testing/quick"
)

// base is a mid-sized selective query over low-dimensional data.
func base() Inputs {
	return Inputs{
		N: 20000, Dims: 2, NI: 20000,
		K: 5, Tau: 4000, Window: 20000,
		Monotone: true,
	}
}

func estimateOf(p Plan, s Strategy) Estimate {
	for _, e := range p.Estimates {
		if e.Strategy == s {
			return e
		}
	}
	return Estimate{}
}

func TestChoosePickesHopForSelectiveQueries(t *testing.T) {
	p := Choose(base())
	if p.Chosen != THop {
		t.Fatalf("selective low-d query chose %v, want t-hop\n%s", p.Chosen, p)
	}
}

func TestChosenIsFirstAndEligible(t *testing.T) {
	p := Choose(base())
	if len(p.Estimates) != 5 {
		t.Fatalf("expected 5 estimates, got %d", len(p.Estimates))
	}
	if p.Estimates[0].Strategy != p.Chosen {
		t.Errorf("Chosen %v is not the first estimate %v", p.Chosen, p.Estimates[0].Strategy)
	}
	if !p.Estimates[0].Eligible {
		t.Error("chosen strategy is marked ineligible")
	}
	for i := 1; i < len(p.Estimates); i++ {
		a, b := p.Estimates[i-1], p.Estimates[i]
		if a.Eligible == b.Eligible && a.Cost > b.Cost {
			t.Errorf("estimates not sorted: %v(%v) before %v(%v)", a.Strategy, a.Cost, b.Strategy, b.Cost)
		}
		if !a.Eligible && b.Eligible {
			t.Error("ineligible estimate sorted before an eligible one")
		}
	}
}

func TestNonMonotoneExcludesSBand(t *testing.T) {
	in := base()
	in.Monotone = false
	p := Choose(in)
	e := estimateOf(p, SBand)
	if e.Eligible {
		t.Fatal("S-Band eligible for a non-monotone scorer")
	}
	if !strings.Contains(e.Reason, "monotone") {
		t.Errorf("ineligibility reason %q does not mention monotonicity", e.Reason)
	}
	if p.Chosen == SBand {
		t.Fatal("chose the ineligible S-Band")
	}
}

func TestMidAnchorExcludesTBaseAndSBand(t *testing.T) {
	in := base()
	in.MidAnchor = true
	p := Choose(in)
	if estimateOf(p, TBase).Eligible || estimateOf(p, SBand).Eligible {
		t.Fatal("mid-anchored query left T-Base or S-Band eligible")
	}
	if p.Chosen == TBase || p.Chosen == SBand {
		t.Fatalf("chose ineligible %v for a mid-anchored query", p.Chosen)
	}
}

func TestHighKMonotonePrefersTBase(t *testing.T) {
	// The repo's Figure 9 point at large k: 20 000 NBA-2 rows, k = 50, tau =
	// 20 % of the span, pinned strategies, warm ladder. While T-Base recomputed
	// its window for every expiring member this was S-Band's (s-band 11.7 ms,
	// t-base 11.7, t-hop 17.6, s-hop 26.8); with the 2k-deep window T-Base
	// recomputes once per ~k answers and runs in 1.7 ms against s-band 7.6,
	// t-hop 11.4, s-base 15.0, s-hop 18.5.
	in := base()
	in.K = 50
	for _, ready := range []bool{false, true} {
		in.SBandReady = ready
		if p := Choose(in); p.Chosen != TBase {
			t.Fatalf("high-k monotone 2-d query (ladder built: %v) chose %v, want t-base\n%s", ready, p.Chosen, p)
		}
	}
}

// TestMeasuredShapes states, for nine (k, tau, |I|) shapes of the exploration
// grid, which strategies the planner may choose: those measured within 3.5x
// of the shape's fastest. The timings are pinned-strategy means over 8 random
// intervals and scorers each, in-process on the 8-shard 100 000-row NBA-2
// archive (2 cores; tau and |I| in percent of the span, ≈ 150 000 ticks), in
// the order t-base / t-hop / s-base / s-band / s-hop. Inputs are the ones the
// served archive produces with no skyband ladder built — the state it stays in,
// since no shape routes to S-Band cold.
func TestMeasuredShapes(t *testing.T) {
	const rows, span = 100_000, 150_000
	shapes := []struct {
		k, tauPct, ivlPct int
		may               []Strategy
	}{
		{10, 10, 50, []Strategy{THop, SBand, SHop}},        // paper defaults: 3.93 / 1.21 / 42.4 / 1.46 / 2.12 ms
		{5, 1, 10, []Strategy{TBase, THop, SBand, SHop}},   // 0.79 / 0.40 / 6.55 / 0.45 / 0.72
		{5, 50, 80, []Strategy{THop, SBand, SHop}},         // 4.72 / 0.38 / 127.6 / 0.64 / 0.69
		{10, 1, 80, []Strategy{TBase, THop, SBand, SHop}},  // 4.35 / 4.29 / 34.2 / 5.47 / 9.31
		{20, 5, 50, []Strategy{TBase, THop, SBand, SHop}},  // 3.91 / 3.07 / 27.8 / 3.15 / 6.27
		{50, 1, 80, []Strategy{TBase}},                     // 7.12 / 67.2 / 32.0 / 46.4 / 75.1
		{50, 10, 80, []Strategy{TBase, THop}},              // 5.45 / 17.4 / 62.9 / 21.7 / 24.6
		{50, 50, 80, []Strategy{TBase, THop, SBand, SHop}}, // 4.60 / 8.12 / 121.2 / 10.7 / 11.7
		{50, 5, 20, []Strategy{TBase}},                     // 1.39 / 5.55 / 14.8 / 5.53 / 8.87
	}
	for _, sh := range shapes {
		in := Inputs{
			N: rows, Dims: 2, NI: rows * sh.ivlPct / 100,
			K: sh.k, Tau: int64(span * sh.tauPct / 100), Window: int64(span * sh.ivlPct / 100),
			Monotone: true,
		}
		p := Choose(in)
		ok := false
		for _, s := range sh.may {
			ok = ok || p.Chosen == s
		}
		if !ok {
			t.Errorf("k=%d tau=%d%% |I|=%d%%: chose %v, measured within 3.5x of the fastest: %v\n%s",
				sh.k, sh.tauPct, sh.ivlPct, p.Chosen, sh.may, p)
		}
	}
}

func TestHighDimensionRejectsSBand(t *testing.T) {
	// Figure 11: the candidate set explodes as log^(d-1), making S-Band
	// worse than T-Base at d=30+ even though it stays eligible.
	in := base()
	in.Dims = 30
	in.K = 50
	p := Choose(in)
	if p.Chosen == SBand {
		t.Fatalf("chose S-Band at d=30\n%s", p)
	}
	sband := estimateOf(p, SBand)
	low := estimateOf(Choose(base()), SBand)
	if sband.Cost <= low.Cost {
		t.Errorf("S-Band cost did not grow with dimensionality: %v (d=30) vs %v (d=2)",
			sband.Cost, low.Cost)
	}
}

func TestTinyDatasetPrefersSort(t *testing.T) {
	in := Inputs{N: 100, Dims: 1, NI: 100, K: 2, Tau: 5, Window: 160, Monotone: true}
	p := Choose(in)
	if p.Chosen != SBase && p.Chosen != TBase {
		t.Fatalf("tiny unselective query chose %v, want a baseline\n%s", p.Chosen, p)
	}
}

func TestHopCostFallsWithTau(t *testing.T) {
	in := base()
	prev := estimateOf(Choose(in), THop).Cost
	for _, tau := range []int64{6000, 10000, 16000} {
		in.Tau = tau
		c := estimateOf(Choose(in), THop).Cost
		if c >= prev {
			t.Errorf("T-Hop cost did not fall as tau grew: %v at tau=%d (prev %v)", c, tau, prev)
		}
		prev = c
	}
}

func TestTBaseCostFlatInTau(t *testing.T) {
	in := base()
	a := estimateOf(Choose(in), TBase).Cost
	in.Tau = 10000
	b := estimateOf(Choose(in), TBase).Cost
	// The maintenance term dominates; only the answer-size term shrinks.
	if b > a {
		t.Errorf("T-Base cost rose with tau: %v -> %v", a, b)
	}
	if a > 2*b {
		t.Errorf("T-Base cost should be roughly flat in tau: %v vs %v", a, b)
	}
}

func TestWarmSkybandDiscountsSBand(t *testing.T) {
	in := base()
	cold := estimateOf(Choose(in), SBand).Cost
	in.SBandReady = true
	warm := estimateOf(Choose(in), SBand).Cost
	if warm >= cold {
		t.Errorf("materialized ladder did not lower S-Band cost: warm %v, cold %v", warm, cold)
	}
}

func TestExpectedAnswerMatchesLemma4(t *testing.T) {
	in := base() // density 1 record/tick: E|S| = k*NI/(tau+1)
	p := Choose(in)
	want := float64(in.K) * float64(in.NI) / float64(in.Tau+1)
	if p.ExpectedAnswer < want*0.9 || p.ExpectedAnswer > want*1.1 {
		t.Errorf("ExpectedAnswer = %v, want about %v", p.ExpectedAnswer, want)
	}
	if p.ExpectedCandidates < p.ExpectedAnswer {
		t.Errorf("ExpectedCandidates %v below ExpectedAnswer %v", p.ExpectedCandidates, p.ExpectedAnswer)
	}
}

func TestPlanString(t *testing.T) {
	s := Choose(base()).String()
	for _, tok := range []string{"t-hop", "s-band", "E|S|", "cost"} {
		if !strings.Contains(s, tok) {
			t.Errorf("Plan.String() missing %q:\n%s", tok, s)
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := map[Strategy]string{
		TBase: "t-base", THop: "t-hop", SBase: "s-base", SBand: "s-band", SHop: "s-hop",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	if got := Strategy(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown strategy rendered %q", got)
	}
}

// TestQuickChooseTotal: Choose is total and structurally sound on arbitrary
// (even nonsensical) inputs — no panics, NaN costs, or ineligible winners.
func TestQuickChooseTotal(t *testing.T) {
	prop := func(n, ni int32, dims, k uint8, tau, window int32, mono, mid, ready bool) bool {
		in := Inputs{
			N: int(n), NI: int(ni), Dims: int(dims), K: int(k),
			Tau: int64(tau), Window: int64(window),
			Monotone: mono, MidAnchor: mid, SBandReady: ready,
		}
		p := Choose(in)
		if len(p.Estimates) != 5 {
			return false
		}
		if !p.Estimates[0].Eligible || p.Estimates[0].Strategy != p.Chosen {
			return false
		}
		for _, e := range p.Estimates {
			if e.Eligible && (e.Cost < 0 || e.Cost != e.Cost) { // negative or NaN
				t.Logf("bad cost %v for %v on %+v", e.Cost, e.Strategy, in)
				return false
			}
		}
		if mid && (p.Chosen == TBase || p.Chosen == SBand) {
			return false
		}
		if !mono && p.Chosen == SBand {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
