package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/score"
	"repro/internal/wire"
)

// Every dataset in the benchmark has the NBA-2 shape: two non-negative
// integer attributes with many ties, named as durserved's -names would.
var attrNames = []string{"points", "assists"}

const dims = 2

// The exploration grid: the paper's interactive parameters, each drawn at
// query time. Percentages are of the queried span.
var (
	gridK      = []int{5, 10, 20, 50}
	gridTauPct = []int64{1, 5, 10, 25, 50}
	gridIvlPct = []int64{10, 20, 50, 80}
)

// lookAheadOneIn makes 20 % of queries look-ahead, the rest look-back.
const lookAheadOneIn = 5

type shape struct {
	k        int
	tau, ivl int64 // percent of the span
	ahead    bool
}

func allShapes() []shape {
	var out []shape
	for _, k := range gridK {
		for _, tau := range gridTauPct {
			for _, ivl := range gridIvlPct {
				for a := 0; a < lookAheadOneIn; a++ {
					out = append(out, shape{k: k, tau: tau, ivl: ivl, ahead: a == 0})
				}
			}
		}
	}
	return out
}

// query is one generated request with the pieces the oracle and the traced
// pass need: the locally compiled scorer and the signature the server-side
// wrapper will see.
type query struct {
	req    wire.Request
	scorer score.Scorer
	anchor core.Anchor
	sig    querySig
}

// queryGen draws exploration queries. Shapes are dealt from a reshuffled
// deck of the whole grid rather than sampled independently, so every seed's
// stream holds the same share of cheap and expensive shapes and only the
// interval position and the scoring function are left to chance: that keeps
// tail latency comparable across seeds.
type queryGen struct {
	rng     *rand.Rand
	dataset string
	deck    []shape
	shuffle *rand.Rand // orders the deck; rng unless the order must not depend on the seed
	next    int
	// backOnly turns look-ahead shapes into look-back ones, for live datasets
	// whose reversed view would be rebuilt after every append.
	backOnly bool
}

func newQueryGen(seed int64, dataset string) *queryGen {
	rng := rand.New(rand.NewSource(seed))
	return &queryGen{rng: rng, shuffle: rng, dataset: dataset, deck: allShapes()}
}

// thin keeps n evenly spaced cards of the ordered grid, so that a stream
// shorter than the full deck (a warm-up) still holds the same balanced mix of
// shapes for every seed. Call it before the first draw.
func (g *queryGen) thin(n int) *queryGen {
	if n < len(g.deck) {
		kept := make([]shape, n)
		for i := range kept {
			kept[i] = g.deck[i*len(g.deck)/n]
		}
		g.deck = kept
	}
	return g
}

func (g *queryGen) deal() shape {
	if g.next == 0 {
		g.shuffle.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
	}
	s := g.deck[g.next]
	g.next = (g.next + 1) % len(g.deck)
	return s
}

// scorer draws a scoring function: 75 % linear weights, 25 % an expression
// compiled server-side. Coefficients are full-precision floats, so two
// draws never share a canonical form.
func (g *queryGen) scorer() (weights []float64, src string, s score.Scorer) {
	c := func() float64 { return 0.05 + 0.95*g.rng.Float64() }
	if g.rng.Intn(4) != 0 {
		weights = []float64{c(), c()}
		return weights, "", score.MustLinear(weights...)
	}
	switch g.rng.Intn(4) {
	case 0:
		src = fmt.Sprintf("%v*points + %v*log1p(assists)", c(), 4*c())
	case 1:
		src = fmt.Sprintf("%v*sqrt(points) + %v*assists", 3*c(), c())
	case 2:
		src = fmt.Sprintf("%v*points + %v*assists + %v*min(points, assists)", c(), c(), c())
	default:
		src = fmt.Sprintf("%v*points - %v*abs(assists - %v)", c(), c(), 10*c())
	}
	return nil, src, expr.MustCompile(src, expr.Options{Dims: dims, Names: attrNames})
}

// draw returns a query over the span [lo, hi].
func (g *queryGen) draw(lo, hi int64) *query {
	sh := g.deal()
	span := hi - lo
	tau := max(span*sh.tau/100, 1)
	ivl := max(span*sh.ivl/100, 1)
	start := lo + g.rng.Int63n(span-ivl+1)
	return g.build(sh.k, tau, start, start+ivl, sh.ahead && !g.backOnly)
}

func (g *queryGen) build(k int, tau, start, end int64, ahead bool) *query {
	weights, src, s := g.scorer()
	q := &query{scorer: s, anchor: core.LookBack}
	q.req = wire.Request{Op: wire.OpQuery, Dataset: g.dataset}
	q.req.QuerySpec = wire.QuerySpec{
		K: k, Tau: tau, Start: start, End: end, ExplicitInterval: true,
		Algorithm: "auto", Weights: weights, Expr: src,
	}
	if ahead {
		q.anchor, q.req.Anchor = core.LookAhead, "look-ahead"
	}
	key, _ := score.CanonicalKey(s)
	q.sig = querySig{K: k, Tau: tau, Start: start, End: end, Anchor: q.anchor, Scorer: key}
	return q
}

// coreQuery is the engine-level form of q, for direct calls into core.
func (q *query) coreQuery(alg core.Algorithm) core.Query {
	return core.Query{
		K: q.req.K, Tau: q.req.Tau, Start: q.req.Start, End: q.req.End,
		Scorer: q.scorer, Algorithm: alg, Anchor: q.anchor,
	}
}

// rowGen generates an endless NBA-2-like stream: bell-shaped integer points
// and assists, arrival gaps of one or two ticks (as datagen.NBA spaces them).
type rowGen struct {
	rng *rand.Rand
	t   int64
}

func newRowGen(seed int64) *rowGen { return &rowGen{rng: rand.New(rand.NewSource(seed))} }

func (g *rowGen) next() wire.IngestRow {
	g.t += int64(1 + g.rng.Intn(2))
	r := g.rng
	points := r.Intn(12) + r.Intn(12) + r.Intn(12) + r.Intn(12)
	assists := r.Intn(6) + r.Intn(6) + r.Intn(5)
	return wire.IngestRow{Time: g.t, Attrs: []float64{float64(points), float64(assists)}}
}

func (g *rowGen) batch(n int) []wire.IngestRow {
	rows := make([]wire.IngestRow, n)
	for i := range rows {
		rows[i] = g.next()
	}
	return rows
}
