// Package blocking implements the blocking mechanism of the score-prioritized
// durable top-k algorithms (paper §IV, Fig. 3).
//
// Every processed high-score record p contributes a blocking interval
// [p.t, p.t+tau]. A candidate record q arriving at time t cannot be
// tau-durable once t is covered by k or more blocking intervals, because
// each covering interval witnesses a record with higher score inside q's
// durability window. Since all intervals share the same length tau, the
// cover count of t equals the number of interval left endpoints in
// [t-tau, t]; the structure therefore maintains a multiset of left endpoints
// in an order-statistic treap with O(log n) expected insert and count.
package blocking

import "math"

// nilNode marks an absent child in the slab-backed treap.
const nilNode = int32(-1)

// Set maintains the left endpoints of equal-length blocking intervals and
// answers coverage-count queries. The zero value is not usable; construct
// with NewSet. Nodes live in one contiguous slab indexed by int32 handles
// rather than per-node heap allocations, so a Set can be Reset and reused
// across queries with zero steady-state allocations (the per-query arenas of
// package core rely on this). Not safe for concurrent use.
type Set struct {
	tau   int64
	nodes []node
	root  int32
	size  int // number of intervals added, counting duplicates
	rng   uint64
}

type node struct {
	key         int64 // interval left endpoint
	prio        uint64
	mult        int32 // multiplicity of key
	count       int32 // total multiplicity in subtree
	left, right int32
}

// NewSet returns an empty blocking set for intervals of length tau >= 0.
func NewSet(tau int64) *Set {
	s := &Set{}
	s.Reset(tau)
	return s
}

// Reset empties the set and re-arms it for intervals of length tau, keeping
// the node slab for reuse: after the first queries have grown the slab,
// Reset-and-refill cycles allocate nothing.
func (s *Set) Reset(tau int64) {
	s.tau = tau
	s.nodes = s.nodes[:0]
	s.root = nilNode
	s.size = 0
	s.rng = 0x9e3779b97f4a7c15
}

// Tau returns the interval length.
func (s *Set) Tau() int64 { return s.tau }

// Len returns the number of intervals added, counting duplicates.
func (s *Set) Len() int { return s.size }

// next is a SplitMix64 step used for treap priorities; deterministic so runs
// are reproducible.
func (s *Set) next() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *Set) count(ni int32) int32 {
	if ni == nilNode {
		return 0
	}
	return s.nodes[ni].count
}

func (s *Set) recount(ni int32) {
	n := &s.nodes[ni]
	n.count = n.mult + s.count(n.left) + s.count(n.right)
}

// Add inserts the blocking interval [left, left+tau].
func (s *Set) Add(left int64) {
	s.root = s.insert(s.root, left)
	s.size++
}

func (s *Set) insert(ni int32, key int64) int32 {
	if ni == nilNode {
		s.nodes = append(s.nodes, node{
			key: key, mult: 1, count: 1, prio: s.next(),
			left: nilNode, right: nilNode,
		})
		return int32(len(s.nodes) - 1)
	}
	// Re-acquire the node pointer after every recursive insert: the slab may
	// have been reallocated by an append deeper in the tree.
	switch n := &s.nodes[ni]; {
	case key == n.key:
		n.mult++
		n.count++
		return ni
	case key < n.key:
		l := s.insert(n.left, key)
		n = &s.nodes[ni]
		n.left = l
		if s.nodes[l].prio > n.prio {
			ni = s.rotateRight(ni)
		}
	default:
		r := s.insert(n.right, key)
		n = &s.nodes[ni]
		n.right = r
		if s.nodes[r].prio > n.prio {
			ni = s.rotateLeft(ni)
		}
	}
	s.recount(ni)
	return ni
}

func (s *Set) rotateRight(ni int32) int32 {
	n := &s.nodes[ni]
	li := n.left
	l := &s.nodes[li]
	n.left = l.right
	l.right = ni
	s.recount(ni)
	s.recount(li)
	return li
}

func (s *Set) rotateLeft(ni int32) int32 {
	n := &s.nodes[ni]
	ri := n.right
	r := &s.nodes[ri]
	n.right = r.left
	r.left = ni
	s.recount(ni)
	s.recount(ri)
	return ri
}

// CountLE returns the number of intervals whose left endpoint is <= x.
func (s *Set) CountLE(x int64) int {
	ni := s.root
	total := int32(0)
	for ni != nilNode {
		n := &s.nodes[ni]
		if x < n.key {
			ni = n.left
		} else {
			total += n.mult + s.count(n.left)
			ni = n.right
		}
	}
	return int(total)
}

// CountRange returns the number of intervals with left endpoint in the
// closed range [a, b]; zero when a > b.
func (s *Set) CountRange(a, b int64) int {
	if a > b {
		return 0
	}
	if a == math.MinInt64 {
		return s.CountLE(b)
	}
	return s.CountLE(b) - s.CountLE(a-1)
}

// Cover returns the number of blocking intervals covering time t, i.e.
// intervals [l, l+tau] with l <= t <= l+tau. A left end below MinInt64 is
// clamped there.
func (s *Set) Cover(t int64) int {
	lo := t - s.tau
	if lo > t {
		lo = math.MinInt64
	}
	return s.CountRange(lo, t)
}

// KthLargestLE returns the k-th largest endpoint among the multiset entries
// <= x (k >= 1), with ok=false when fewer than k such entries exist. The
// durability-profile sweep uses it to locate the k-th most recent
// higher-scoring record in one O(log n) step.
func (s *Set) KthLargestLE(x int64, k int) (key int64, ok bool) {
	if k < 1 {
		return 0, false
	}
	c := s.CountLE(x)
	if c < k {
		return 0, false
	}
	// The k-th largest among entries <= x is the (c-k+1)-th smallest
	// overall, which is itself <= x because its ascending rank is <= c.
	return s.selectAsc(c - k + 1), true
}

// selectAsc returns the rank-th smallest key (1-based, counting
// multiplicity). The caller guarantees 1 <= rank <= Len().
func (s *Set) selectAsc(rank int) int64 {
	ni := s.root
	for {
		n := &s.nodes[ni]
		leftCount := int(s.count(n.left))
		switch {
		case rank <= leftCount:
			ni = n.left
		case rank <= leftCount+int(n.mult):
			return n.key
		default:
			rank -= leftCount + int(n.mult)
			ni = n.right
		}
	}
}

// Blocked reports whether time t is covered by at least k intervals.
func (s *Set) Blocked(t int64, k int) bool {
	return s.Cover(t) >= k
}
