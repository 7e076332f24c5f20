package planner

import (
	"math"
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

// TestMeasuredShapes holds the planner to measurements over the whole
// exploration grid of the end-to-end benchmark: k in {5, 10, 20, 50} x tau in
// {1, 5, 10, 25, 50} % x |I| in {10, 20, 50, 80} % of the span. On each shape
// it may choose only a strategy measured within 1.5x of the shape's fastest,
// and over the grid the measured time of its choices may exceed the sum of the
// per-shape minima by at most a quarter.
//
// The timings are milliseconds per query, pinned t-base / t-hop / s-hop, the
// fastest of three passes over 16 random intervals and scorers per shape (a
// quarter of them expressions, a fifth look-ahead, as the benchmark draws
// them), in-process on the 8-shard 100 000-row NBA-2 archive (2 cores; span
// ≈ 150 000 ticks). Inputs are the ones the served archive produces with no
// skyband ladder built — the state it stays in, since no shape routes to
// S-Band cold; S-Base is 10-100x off everywhere and not in the table, so
// choosing either fails the shape.
func TestMeasuredShapes(t *testing.T) {
	const rows, span = 100_000, 150_000
	measured := [3]Strategy{TBase, THop, SHop}
	shapes := []struct {
		k, tauPct, ivlPct int
		ms                [3]float64
	}{
		{5, 1, 10, [3]float64{0.34, 0.39, 0.66}},
		{5, 1, 20, [3]float64{0.62, 0.79, 1.38}},
		{5, 1, 50, [3]float64{1.86, 2.23, 3.89}},
		{5, 1, 80, [3]float64{2.82, 3.48, 4.44}},
		{5, 5, 10, [3]float64{0.38, 0.19, 0.36}},
		{5, 5, 20, [3]float64{0.48, 0.28, 0.47}},
		{5, 5, 50, [3]float64{0.96, 0.53, 0.93}},
		{5, 5, 80, [3]float64{1.28, 0.75, 1.27}},
		{5, 10, 10, [3]float64{0.30, 0.15, 0.25}},
		{5, 10, 20, [3]float64{0.48, 0.22, 0.35}},
		{5, 10, 50, [3]float64{0.96, 0.45, 0.77}},
		{5, 10, 80, [3]float64{1.60, 0.67, 1.18}},
		{5, 25, 10, [3]float64{0.34, 0.18, 0.25}},
		{5, 25, 20, [3]float64{0.44, 0.20, 0.29}},
		{5, 25, 50, [3]float64{0.88, 0.41, 0.60}},
		{5, 25, 80, [3]float64{1.34, 0.56, 0.86}},
		{5, 50, 10, [3]float64{0.28, 0.15, 0.23}},
		{5, 50, 20, [3]float64{0.43, 0.26, 0.35}},
		{5, 50, 50, [3]float64{0.86, 0.36, 0.58}},
		{5, 50, 80, [3]float64{1.22, 0.55, 0.82}},
		{10, 1, 10, [3]float64{0.27, 0.66, 1.27}},
		{10, 1, 20, [3]float64{0.50, 1.12, 1.97}},
		{10, 1, 50, [3]float64{0.98, 2.14, 4.12}},
		{10, 1, 80, [3]float64{1.31, 3.65, 7.07}},
		{10, 5, 10, [3]float64{0.31, 0.35, 0.59}},
		{10, 5, 20, [3]float64{0.52, 0.59, 0.92}},
		{10, 5, 50, [3]float64{1.03, 1.00, 1.80}},
		{10, 5, 80, [3]float64{1.49, 1.73, 3.03}},
		{10, 10, 10, [3]float64{0.43, 0.37, 0.63}},
		{10, 10, 20, [3]float64{0.48, 0.36, 0.65}},
		{10, 10, 50, [3]float64{1.05, 0.76, 1.43}},
		{10, 10, 80, [3]float64{1.47, 1.07, 2.03}},
		{10, 25, 10, [3]float64{0.31, 0.25, 0.39}},
		{10, 25, 20, [3]float64{0.49, 0.34, 0.55}},
		{10, 25, 50, [3]float64{0.94, 0.66, 1.02}},
		{10, 25, 80, [3]float64{1.64, 0.96, 1.61}},
		{10, 50, 10, [3]float64{0.42, 0.30, 0.46}},
		{10, 50, 20, [3]float64{0.46, 0.37, 0.53}},
		{10, 50, 50, [3]float64{0.99, 0.60, 0.94}},
		{10, 50, 80, [3]float64{1.42, 0.83, 1.41}},
		{20, 1, 10, [3]float64{0.35, 1.75, 3.56}},
		{20, 1, 20, [3]float64{0.59, 2.72, 5.55}},
		{20, 1, 50, [3]float64{1.03, 5.34, 11.42}},
		{20, 1, 80, [3]float64{1.58, 10.63, 20.37}},
		{20, 5, 10, [3]float64{0.36, 0.71, 1.33}},
		{20, 5, 20, [3]float64{0.49, 1.07, 2.01}},
		{20, 5, 50, [3]float64{1.13, 2.46, 4.55}},
		{20, 5, 80, [3]float64{1.55, 3.44, 7.30}},
		{20, 10, 10, [3]float64{0.45, 0.67, 1.17}},
		{20, 10, 20, [3]float64{0.51, 0.82, 1.43}},
		{20, 10, 50, [3]float64{1.09, 1.68, 3.09}},
		{20, 10, 80, [3]float64{1.87, 2.75, 5.68}},
		{20, 25, 10, [3]float64{0.44, 0.54, 0.83}},
		{20, 25, 20, [3]float64{0.52, 0.66, 1.08}},
		{20, 25, 50, [3]float64{1.02, 1.26, 2.15}},
		{20, 25, 80, [3]float64{1.87, 2.07, 3.83}},
		{20, 50, 10, [3]float64{0.51, 0.48, 0.78}},
		{20, 50, 20, [3]float64{0.62, 0.72, 1.18}},
		{20, 50, 50, [3]float64{1.13, 1.14, 2.02}},
		{20, 50, 80, [3]float64{1.54, 1.62, 2.83}},
		{50, 1, 10, [3]float64{0.46, 7.62, 11.47}},
		{50, 1, 20, [3]float64{0.79, 11.73, 18.02}},
		{50, 1, 50, [3]float64{1.52, 25.10, 38.54}},
		{50, 1, 80, [3]float64{2.08, 49.31, 67.91}},
		{50, 5, 10, [3]float64{0.52, 3.11, 4.89}},
		{50, 5, 20, [3]float64{0.72, 4.63, 7.44}},
		{50, 5, 50, [3]float64{1.19, 9.06, 15.59}},
		{50, 5, 80, [3]float64{2.11, 19.06, 29.50}},
		{50, 10, 10, [3]float64{0.52, 2.08, 3.52}},
		{50, 10, 20, [3]float64{0.78, 3.32, 5.39}},
		{50, 10, 50, [3]float64{1.61, 6.86, 11.40}},
		{50, 10, 80, [3]float64{2.10, 13.51, 20.57}},
		{50, 25, 10, [3]float64{0.50, 1.62, 2.55}},
		{50, 25, 20, [3]float64{0.75, 2.18, 3.18}},
		{50, 25, 50, [3]float64{1.33, 4.69, 7.08}},
		{50, 25, 80, [3]float64{2.16, 7.69, 12.81}},
		{50, 50, 10, [3]float64{0.65, 1.52, 2.35}},
		{50, 50, 20, [3]float64{0.78, 1.90, 2.93}},
		{50, 50, 50, [3]float64{1.70, 4.28, 6.58}},
		{50, 50, 80, [3]float64{2.26, 6.44, 10.27}},
	}
	var chosenSum, bestSum float64
	for _, sh := range shapes {
		in := Inputs{
			N: rows, Dims: 2, NI: rows * sh.ivlPct / 100,
			K: sh.k, Tau: int64(span * sh.tauPct / 100), Window: int64(span * sh.ivlPct / 100),
			Monotone: true,
		}
		p := Choose(in)
		best := min(sh.ms[0], sh.ms[1], sh.ms[2])
		chosen := math.Inf(1)
		for i, s := range measured {
			if p.Chosen == s {
				chosen = sh.ms[i]
			}
		}
		if chosen > 1.5*best {
			t.Errorf("k=%d tau=%d%% |I|=%d%%: chose %v (%.2f ms), fastest measured %.2f ms (t-base/t-hop/s-hop %v)\n%s",
				sh.k, sh.tauPct, sh.ivlPct, p.Chosen, chosen, best, sh.ms, p)
		}
		chosenSum += chosen
		bestSum += best
	}
	if chosenSum > 1.25*bestSum {
		t.Errorf("over the grid the chosen strategies measure %.1f ms, the per-shape fastest %.1f ms: more than 1.25x", chosenSum, bestSum)
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
