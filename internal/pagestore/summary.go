package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/score"
	"repro/internal/skyline"
)

// SummaryFanout is the number of children grouped under each internal
// summary node.
const SummaryFanout = 32

// DefaultSummarySkyline caps the per-node inline skyline entries.
const DefaultSummarySkyline = 16

// SummaryIndex is a paged hierarchical summary over a Table's heap pages:
// each leaf summarizes one heap page (time range, MBR, capped skyline with
// inline attributes), internal nodes merge children. It answers range top-k
// queries by branch-and-bound, fetching summary and heap pages through the
// buffer pool so that page reads reflect real index traversal cost. This is
// the counterpart of the paper's PostgreSQL "index tables" (§VI-C).
type SummaryIndex struct {
	pool  *BufferPool
	table *Table
	dims  int
	// loc maps node id to its page and slot.
	loc  []nodeLoc
	root int32
}

// nodeLoc addresses one serialized summary node.
type nodeLoc struct {
	Page PageID
	Slot uint16
}

// summaryNode is the decoded form of one node tuple.
type summaryNode struct {
	minT, maxT int64
	leafPage   PageID  // valid when children == nil
	children   []int32 // node ids
	mbrLo      []float64
	mbrHi      []float64
	skyTimes   []int64
	skyAttrs   [][]float64
}

const nodeLeaf, nodeInternal = uint16(0), uint16(1)

func encodeNode(buf []byte, n *summaryNode, d int) []byte {
	off := 0
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	put16 := func(v uint16) {
		binary.LittleEndian.PutUint16(buf[off:], v)
		off += 2
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[off:], v)
		off += 4
	}
	put64(uint64(n.minT))
	put64(uint64(n.maxT))
	if n.children == nil {
		put16(nodeLeaf)
		put32(uint32(n.leafPage))
	} else {
		put16(nodeInternal)
		put16(uint16(len(n.children)))
		for _, c := range n.children {
			put32(uint32(c))
		}
	}
	put16(uint16(d))
	for _, v := range n.mbrLo {
		put64(math.Float64bits(v))
	}
	for _, v := range n.mbrHi {
		put64(math.Float64bits(v))
	}
	put16(uint16(len(n.skyTimes)))
	for i, t := range n.skyTimes {
		put64(uint64(t))
		for _, v := range n.skyAttrs[i] {
			put64(math.Float64bits(v))
		}
	}
	return buf[:off]
}

func decodeNode(b []byte) (*summaryNode, error) {
	off := 0
	get64 := func() uint64 {
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v
	}
	get16 := func() uint16 {
		v := binary.LittleEndian.Uint16(b[off:])
		off += 2
		return v
	}
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v
	}
	n := &summaryNode{}
	n.minT = int64(get64())
	n.maxT = int64(get64())
	switch kind := get16(); kind {
	case nodeLeaf:
		n.leafPage = PageID(get32())
	case nodeInternal:
		cn := int(get16())
		n.children = make([]int32, cn)
		for i := range n.children {
			n.children[i] = int32(get32())
		}
	default:
		return nil, fmt.Errorf("pagestore: bad summary node kind %d", kind)
	}
	d := int(get16())
	n.mbrLo = make([]float64, d)
	n.mbrHi = make([]float64, d)
	for i := range n.mbrLo {
		n.mbrLo[i] = math.Float64frombits(get64())
	}
	for i := range n.mbrHi {
		n.mbrHi[i] = math.Float64frombits(get64())
	}
	ns := int(get16())
	n.skyTimes = make([]int64, ns)
	n.skyAttrs = make([][]float64, ns)
	for i := 0; i < ns; i++ {
		n.skyTimes[i] = int64(get64())
		row := make([]float64, d)
		for j := range row {
			row[j] = math.Float64frombits(get64())
		}
		n.skyAttrs[i] = row
	}
	return n, nil
}

// BuildSummaryIndex scans the sealed table once and writes the summary
// hierarchy into fresh pages.
func BuildSummaryIndex(pool *BufferPool, table *Table) (*SummaryIndex, error) {
	if err := table.Seal(); err != nil {
		return nil, err
	}
	d := table.Dims()
	skyCap := DefaultSummarySkyline
	// Shrink the cap if a full node would not fit a page.
	for skyCap > 0 {
		size := 18 + 2 + 4*SummaryFanout + 2 + 16*d + 2 + skyCap*(8+8*d)
		if size <= PageSize-64 {
			break
		}
		skyCap--
	}

	si := &SummaryIndex{pool: pool, table: table, dims: d, root: -1}
	var nodes []*summaryNode

	// Level 0: one summary per heap page.
	attrs := make([]float64, d)
	for _, pm := range table.Meta() {
		f, err := pool.Fetch(pm.ID)
		if err != nil {
			return nil, err
		}
		p := SlottedPage(f.Data)
		rows := make([][]float64, 0, p.NumSlots())
		times := make([]int64, 0, p.NumSlots())
		for s := 0; s < p.NumSlots(); s++ {
			_, tm := DecodeTuple(p.Tuple(s), attrs)
			row := make([]float64, d)
			copy(row, attrs)
			rows = append(rows, row)
			times = append(times, tm)
		}
		pool.Unpin(f, false)
		n := &summaryNode{minT: pm.MinTime, maxT: pm.MaxTime, leafPage: pm.ID}
		n.mbrLo, n.mbrHi = rowsMBR(rows)
		ids := make([]int32, len(rows))
		for i := range ids {
			ids[i] = int32(i)
		}
		sky := skyline.Compute(skyline.Rows(rows), ids)
		if len(sky) <= skyCap {
			for _, id := range sky {
				n.skyTimes = append(n.skyTimes, times[id])
				n.skyAttrs = append(n.skyAttrs, rows[id])
			}
		}
		nodes = append(nodes, n)
	}
	if len(nodes) == 0 {
		return nil, errors.New("pagestore: cannot index an empty table")
	}

	// Upper levels: group SummaryFanout children per node.
	level := make([]int32, len(nodes))
	for i := range level {
		level[i] = int32(i)
	}
	for len(level) > 1 {
		var next []int32
		for lo := 0; lo < len(level); lo += SummaryFanout {
			hi := lo + SummaryFanout
			if hi > len(level) {
				hi = len(level)
			}
			kids := level[lo:hi]
			n := mergeNodes(nodes, kids, skyCap)
			nodes = append(nodes, n)
			next = append(next, int32(len(nodes)-1))
		}
		level = next
	}
	si.root = level[0]

	// Persist nodes into pages.
	si.loc = make([]nodeLoc, len(nodes))
	buf := make([]byte, PageSize)
	var cur *Frame
	open := func() error {
		f, err := pool.Alloc()
		if err != nil {
			return err
		}
		InitSlotted(f.Data)
		cur = f
		return nil
	}
	seal := func() {
		if cur != nil {
			SlottedPage(cur.Data).SetChecksum()
			pool.Unpin(cur, true)
			cur = nil
		}
	}
	for i, n := range nodes {
		tuple := encodeNode(buf, n, d)
		if cur == nil {
			if err := open(); err != nil {
				return nil, err
			}
		}
		slot, ok := SlottedPage(cur.Data).Insert(tuple)
		if !ok {
			seal()
			if err := open(); err != nil {
				return nil, err
			}
			slot, ok = SlottedPage(cur.Data).Insert(tuple)
			if !ok {
				return nil, errors.New("pagestore: summary node exceeds page size")
			}
		}
		si.loc[i] = nodeLoc{Page: cur.ID, Slot: uint16(slot)}
	}
	seal()
	return si, nil
}

func rowsMBR(rows [][]float64) (lo, hi []float64) {
	d := len(rows[0])
	lo = make([]float64, d)
	hi = make([]float64, d)
	copy(lo, rows[0])
	copy(hi, rows[0])
	for _, r := range rows[1:] {
		for j, v := range r {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	return lo, hi
}

// mergeNodes builds an internal node over the given child ids.
func mergeNodes(nodes []*summaryNode, kids []int32, skyCap int) *summaryNode {
	first := nodes[kids[0]]
	d := len(first.mbrLo)
	n := &summaryNode{
		minT:     first.minT,
		maxT:     nodes[kids[len(kids)-1]].maxT,
		children: append([]int32(nil), kids...),
		mbrLo:    append([]float64(nil), first.mbrLo...),
		mbrHi:    append([]float64(nil), first.mbrHi...),
	}
	var rows [][]float64
	var times []int64
	complete := true
	for _, c := range kids {
		kid := nodes[c]
		for j := 0; j < d; j++ {
			if kid.mbrLo[j] < n.mbrLo[j] {
				n.mbrLo[j] = kid.mbrLo[j]
			}
			if kid.mbrHi[j] > n.mbrHi[j] {
				n.mbrHi[j] = kid.mbrHi[j]
			}
		}
		if kid.skyTimes == nil {
			complete = false
		}
		rows = append(rows, kid.skyAttrs...)
		times = append(times, kid.skyTimes...)
	}
	if complete && len(rows) > 0 {
		ids := make([]int32, len(rows))
		for i := range ids {
			ids[i] = int32(i)
		}
		sky := skyline.Compute(skyline.Rows(rows), ids)
		if len(sky) <= skyCap {
			for _, id := range sky {
				n.skyTimes = append(n.skyTimes, times[id])
				n.skyAttrs = append(n.skyAttrs, rows[id])
			}
		}
	}
	return n
}

// fetchNode decodes node id through the buffer pool.
func (si *SummaryIndex) fetchNode(id int32) (*summaryNode, error) {
	loc := si.loc[id]
	f, err := si.pool.Fetch(loc.Page)
	if err != nil {
		return nil, err
	}
	defer si.pool.Unpin(f, false)
	return decodeNode(SlottedPage(f.Data).Tuple(int(loc.Slot)))
}

// Item is one range top-k result record.
type Item struct {
	ID    uint32
	Time  int64
	Score float64
}

// betterItem is the canonical (score desc, time desc) order.
func betterItem(a, b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Time > b.Time
}

// TopK answers Q(s, k, [t1, t2]) over the table by branch-and-bound on the
// paged summaries; all page accesses go through the buffer pool.
func (si *SummaryIndex) TopK(s score.Scorer, k int, t1, t2 int64) ([]Item, error) {
	if k <= 0 || t1 > t2 {
		return nil, nil
	}
	monotone := score.IsMonotone(s)
	var res []Item // sorted best-first, at most k
	offer := func(it Item) {
		if len(res) == k && !betterItem(it, res[k-1]) {
			return
		}
		pos := len(res)
		for pos > 0 && betterItem(it, res[pos-1]) {
			pos--
		}
		if len(res) < k {
			res = append(res, Item{})
		}
		copy(res[pos+1:], res[pos:])
		res[pos] = it
	}
	improves := func(ub float64, maxT int64) bool {
		if len(res) < k {
			return true
		}
		kth := res[k-1]
		if ub != kth.Score {
			return ub > kth.Score
		}
		return maxT > kth.Time
	}

	type frontier struct {
		node int32
		ub   float64
		maxT int64
	}
	pq := []frontier{{node: si.root, ub: math.Inf(1), maxT: t2}}
	push := func(f frontier) {
		pq = append(pq, f)
		i := len(pq) - 1
		for i > 0 {
			p := (i - 1) / 2
			if pq[i].ub < pq[p].ub || (pq[i].ub == pq[p].ub && pq[i].maxT <= pq[p].maxT) {
				break
			}
			pq[i], pq[p] = pq[p], pq[i]
			i = p
		}
	}
	pop := func() frontier {
		top := pq[0]
		last := len(pq) - 1
		pq[0] = pq[last]
		pq = pq[:last]
		i, n := 0, len(pq)
		for {
			l, r, best := 2*i+1, 2*i+2, i
			if l < n && (pq[l].ub > pq[best].ub || (pq[l].ub == pq[best].ub && pq[l].maxT > pq[best].maxT)) {
				best = l
			}
			if r < n && (pq[r].ub > pq[best].ub || (pq[r].ub == pq[best].ub && pq[r].maxT > pq[best].maxT)) {
				best = r
			}
			if best == i {
				break
			}
			pq[i], pq[best] = pq[best], pq[i]
			i = best
		}
		return top
	}

	attrs := make([]float64, si.dims)
	for len(pq) > 0 {
		e := pop()
		if !improves(e.ub, e.maxT) {
			break
		}
		n, err := si.fetchNode(e.node)
		if err != nil {
			return nil, err
		}
		if n.children == nil {
			f, err := si.pool.Fetch(n.leafPage)
			if err != nil {
				return nil, err
			}
			p := SlottedPage(f.Data)
			if err := p.VerifyChecksum(); err != nil {
				si.pool.Unpin(f, false)
				return nil, fmt.Errorf("heap page %d: %w", n.leafPage, err)
			}
			for slot := 0; slot < p.NumSlots(); slot++ {
				id, tm := DecodeTuple(p.Tuple(slot), attrs)
				if tm < t1 || tm > t2 {
					continue
				}
				offer(Item{ID: id, Time: tm, Score: s.Score(attrs)})
			}
			si.pool.Unpin(f, false)
			continue
		}
		for _, c := range n.children {
			kid, err := si.fetchNode(c)
			if err != nil {
				return nil, err
			}
			if kid.maxT < t1 || kid.minT > t2 {
				continue
			}
			ub := si.nodeUpperBound(s, monotone, kid)
			maxT := kid.maxT
			if maxT > t2 {
				maxT = t2
			}
			if improves(ub, maxT) {
				push(frontier{node: c, ub: ub, maxT: maxT})
			}
		}
	}
	return res, nil
}

func (si *SummaryIndex) nodeUpperBound(s score.Scorer, monotone bool, n *summaryNode) float64 {
	if monotone && n.skyTimes != nil && len(n.skyAttrs) > 0 {
		best := math.Inf(-1)
		for _, row := range n.skyAttrs {
			if v := s.Score(row); v > best {
				best = v
			}
		}
		return best
	}
	return score.UpperBound(s, n.mbrLo, n.mbrHi)
}

// NumNodes returns the number of summary nodes.
func (si *SummaryIndex) NumNodes() int { return len(si.loc) }
