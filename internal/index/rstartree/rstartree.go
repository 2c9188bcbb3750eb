// Package rstartree implements the R*-tree of Beckmann et al. over PAA
// summaries, the configuration the paper evaluates ("we modified this code
// by adding support for PAA summaries"): ChooseSubtree with minimum overlap
// enlargement at the leaf level, forced reinsertion (30% of entries, once
// per level per insertion), and the R* split that picks the axis by minimum
// margin sum and the distribution by minimum overlap.
//
// Exact k-NN uses best-first traversal with MINDIST on the (segment-width
// weighted) PAA rectangles, which lower-bounds true Euclidean distance.
package rstartree

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/transform/paa"
)

func init() {
	core.Register("R*-tree", func(opts core.Options) core.Method { return New(opts) })
}

const reinsertFraction = 0.3

type entry struct {
	lo, hi []float64
	child  *node // nil for leaf entries
	id     int
}

type node struct {
	level   int // 0 = leaf
	entries []entry
}

// Index is the R*-tree method.
type Index struct {
	opts   core.Options
	c      *core.Collection
	xform  *paa.Transform
	root   *node
	points [][]float64
	maxCap int
	minCap int
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool

	// reinserted tracks levels already treated by forced reinsertion during
	// the current top-level insertion.
	reinserted map[int]bool
}

// New creates an R*-tree.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "R*-tree" }

// Build implements core.Method.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("rstartree: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("rstartree: empty collection")
	}
	ix.xform = paa.New(c.File.SeriesLen(), ix.opts.Segments)
	ix.maxCap = ix.opts.LeafSize
	if ix.maxCap < 4 {
		ix.maxCap = 4
	}
	ix.minCap = ix.maxCap * 2 / 5
	if ix.minCap < 1 {
		ix.minCap = 1
	}
	ix.root = &node{level: 0}

	c.File.ChargeFullScan()
	ix.points = make([][]float64, c.File.Len())
	for i := 0; i < c.File.Len(); i++ {
		ix.points[i] = ix.xform.Apply(c.File.Peek(i))
	}
	for i := range ix.points {
		ix.reinserted = map[int]bool{}
		ix.insert(entry{lo: ix.points[i], hi: ix.points[i], id: i}, 0)
	}
	// Leaf materialization (raw objects clustered with their leaves;
	// spills under a bounded memory budget).
	core.ChargeMaterialization(c, ix.opts)
	return nil
}

// --- geometry helpers ---

func area(lo, hi []float64) float64 {
	a := 1.0
	for d := range lo {
		a *= hi[d] - lo[d]
	}
	return a
}

func margin(lo, hi []float64) float64 {
	m := 0.0
	for d := range lo {
		m += hi[d] - lo[d]
	}
	return m
}

func overlap(alo, ahi, blo, bhi []float64) float64 {
	o := 1.0
	for d := range alo {
		lo := math.Max(alo[d], blo[d])
		hi := math.Min(ahi[d], bhi[d])
		if hi <= lo {
			return 0
		}
		o *= hi - lo
	}
	return o
}

func enlarge(lo, hi, plo, phi []float64) (nlo, nhi []float64) {
	nlo = append([]float64{}, lo...)
	nhi = append([]float64{}, hi...)
	for d := range nlo {
		if plo[d] < nlo[d] {
			nlo[d] = plo[d]
		}
		if phi[d] > nhi[d] {
			nhi[d] = phi[d]
		}
	}
	return nlo, nhi
}

func mbr(entries []entry) (lo, hi []float64) {
	lo = append([]float64{}, entries[0].lo...)
	hi = append([]float64{}, entries[0].hi...)
	for _, e := range entries[1:] {
		for d := range lo {
			if e.lo[d] < lo[d] {
				lo[d] = e.lo[d]
			}
			if e.hi[d] > hi[d] {
				hi[d] = e.hi[d]
			}
		}
	}
	return lo, hi
}

// --- insertion ---

// insert places e at the target level, handling overflow along the path.
func (ix *Index) insert(e entry, level int) {
	path := ix.choosePath(e, level)
	n := path[len(path)-1]
	n.entries = append(n.entries, e)
	ix.overflowTreatment(path)
}

// choosePath returns the root-to-target path for inserting at the given
// level (R* ChooseSubtree).
func (ix *Index) choosePath(e entry, level int) []*node {
	path := []*node{ix.root}
	n := ix.root
	for n.level > level {
		best := ix.chooseSubtree(n, e)
		// Update the chosen child's rectangle.
		c := &n.entries[best]
		c.lo, c.hi = enlarge(c.lo, c.hi, e.lo, e.hi)
		n = c.child
		path = append(path, n)
	}
	return path
}

func (ix *Index) chooseSubtree(n *node, e entry) int {
	best := 0
	bestOverlapInc, bestAreaInc, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	childrenAreLeaves := n.level == 1
	for i, c := range n.entries {
		nlo, nhi := enlarge(c.lo, c.hi, e.lo, e.hi)
		areaInc := area(nlo, nhi) - area(c.lo, c.hi)
		a := area(c.lo, c.hi)
		overlapInc := 0.0
		if childrenAreLeaves {
			for j, o := range n.entries {
				if j == i {
					continue
				}
				overlapInc += overlap(nlo, nhi, o.lo, o.hi) - overlap(c.lo, c.hi, o.lo, o.hi)
			}
		}
		if overlapInc < bestOverlapInc ||
			(overlapInc == bestOverlapInc && areaInc < bestAreaInc) ||
			(overlapInc == bestOverlapInc && areaInc == bestAreaInc && a < bestArea) {
			best, bestOverlapInc, bestAreaInc, bestArea = i, overlapInc, areaInc, a
		}
	}
	return best
}

// overflowTreatment walks the path bottom-up resolving overflows by forced
// reinsertion (first time per level) or splitting.
func (ix *Index) overflowTreatment(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if len(n.entries) <= ix.maxCap {
			continue
		}
		if i > 0 && !ix.reinserted[n.level] {
			ix.reinserted[n.level] = true
			ix.reinsert(n, path[:i+1])
			// reinsert may cascade; restart treatment from the leaf.
			return
		}
		ix.splitNode(n, path[:i])
	}
}

// reinsert removes the reinsertFraction entries farthest from the node
// center and inserts them again from the top.
func (ix *Index) reinsert(n *node, path []*node) {
	lo, hi := mbr(n.entries)
	center := make([]float64, len(lo))
	for d := range lo {
		center[d] = (lo[d] + hi[d]) / 2
	}
	type distEntry struct {
		e entry
		d float64
	}
	des := make([]distEntry, len(n.entries))
	for i, e := range n.entries {
		var d float64
		for dd := range center {
			m := (e.lo[dd] + e.hi[dd]) / 2
			d += (m - center[dd]) * (m - center[dd])
		}
		des[i] = distEntry{e: e, d: d}
	}
	sort.Slice(des, func(a, b int) bool { return des[a].d > des[b].d })
	p := int(reinsertFraction * float64(len(des)))
	if p < 1 {
		p = 1
	}
	removed := make([]entry, p)
	for i := 0; i < p; i++ {
		removed[i] = des[i].e
	}
	n.entries = n.entries[:0]
	for i := p; i < len(des); i++ {
		n.entries = append(n.entries, des[i].e)
	}
	ix.tightenPath(path)
	for _, e := range removed {
		ix.insert(e, n.level)
	}
}

// tightenPath recomputes the rectangles stored for each node along the path.
func (ix *Index) tightenPath(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		parent, child := path[i], path[i+1]
		for j := range parent.entries {
			if parent.entries[j].child == child {
				parent.entries[j].lo, parent.entries[j].hi = mbr(child.entries)
				break
			}
		}
	}
}

// splitNode applies the R* split and pushes the new sibling into the parent
// (possibly overflowing it in turn — handled by the caller's loop).
func (ix *Index) splitNode(n *node, ancestors []*node) {
	left, right := ix.rstarSplit(n.entries)
	n.entries = left
	sibling := &node{level: n.level, entries: right}

	if len(ancestors) == 0 {
		// Root split: grow the tree.
		oldRoot := &node{level: n.level, entries: n.entries}
		lo1, hi1 := mbr(oldRoot.entries)
		lo2, hi2 := mbr(sibling.entries)
		n.level++
		n.entries = []entry{
			{lo: lo1, hi: hi1, child: oldRoot},
			{lo: lo2, hi: hi2, child: sibling},
		}
		return
	}
	parent := ancestors[len(ancestors)-1]
	for j := range parent.entries {
		if parent.entries[j].child == n {
			parent.entries[j].lo, parent.entries[j].hi = mbr(n.entries)
			break
		}
	}
	lo, hi := mbr(sibling.entries)
	parent.entries = append(parent.entries, entry{lo: lo, hi: hi, child: sibling})
}

// rstarSplit partitions entries into two groups by the R* topology.
func (ix *Index) rstarSplit(entries []entry) (left, right []entry) {
	dims := len(entries[0].lo)
	m := ix.minCap
	M := len(entries)

	bestAxis, bestMargin := 0, math.Inf(1)
	for d := 0; d < dims; d++ {
		sorted := append([]entry{}, entries...)
		sort.Slice(sorted, func(a, b int) bool {
			if sorted[a].lo[d] != sorted[b].lo[d] {
				return sorted[a].lo[d] < sorted[b].lo[d]
			}
			return sorted[a].hi[d] < sorted[b].hi[d]
		})
		var marginSum float64
		for k := m; k <= M-m; k++ {
			lo1, hi1 := mbr(sorted[:k])
			lo2, hi2 := mbr(sorted[k:])
			marginSum += margin(lo1, hi1) + margin(lo2, hi2)
		}
		if marginSum < bestMargin {
			bestAxis, bestMargin = d, marginSum
		}
	}

	sorted := append([]entry{}, entries...)
	d := bestAxis
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].lo[d] != sorted[b].lo[d] {
			return sorted[a].lo[d] < sorted[b].lo[d]
		}
		return sorted[a].hi[d] < sorted[b].hi[d]
	})
	bestK, bestOverlap, bestArea := m, math.Inf(1), math.Inf(1)
	for k := m; k <= M-m; k++ {
		lo1, hi1 := mbr(sorted[:k])
		lo2, hi2 := mbr(sorted[k:])
		ov := overlap(lo1, hi1, lo2, hi2)
		ar := area(lo1, hi1) + area(lo2, hi2)
		if ov < bestOverlap || (ov == bestOverlap && ar < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, ar
		}
	}
	left = append([]entry{}, sorted[:bestK]...)
	right = append([]entry{}, sorted[bestK:]...)
	return left, right
}

// --- query ---

// KNN implements core.Method: core.BestFirst over the rectangles. The tree
// has no ng descent, so the walk starts at the root.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	if ix.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("rstartree: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, stats.QueryStats{}, fmt.Errorf("rstartree: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	w := core.StateOf[walker](sc)
	*w = walker{ix: ix, sc: sc, qpaa: ix.xform.ApplyInto(q, sc.Summary(ix.xform.Segments()))}
	return core.BestFirst(ctx, sc, ix.c, q, k, core.ApproxSpec{}, w)
}

// walker is one query's view of the tree for core.BestFirst: the query's
// PAA vector.
type walker struct {
	ix   *Index
	sc   *core.Scratch
	qpaa []float64
}

// Descend implements core.Tree: an R*-tree has no ng leaf.
func (w *walker) Descend() (*node, []int, bool) { return nil, nil, false }

// Roots implements core.Tree.
func (w *walker) Roots(f *core.Frontier[*node], _ *stats.QueryStats) {
	f.Push(0, w.ix.root)
}

// Expand implements core.Tree.
func (w *walker) Expand(n *node, f *core.Frontier[*node], qs *stats.QueryStats) bool {
	if n.level == 0 {
		return false
	}
	for _, e := range n.entries {
		lb := w.ix.xform.LowerBoundToRect(w.qpaa, e.lo, e.hi)
		qs.LBCalcs++
		f.Push(lb, e.child)
	}
	return true
}

// Refine implements core.Tree: the leaf's entries are pruned by their point
// lower bounds first, then the surviving raw series are fetched (one leaf
// access). An entry whose bound equals the k-th distance survives: a tie
// still wins on a smaller id.
func (w *walker) Refine(n *node, rf *core.Refiner, qs *stats.QueryStats) {
	ids := w.sc.IDs(len(n.entries))
	m := 0
	for _, e := range n.entries {
		lb := w.ix.xform.LowerBound(w.qpaa, e.lo)
		qs.LBCalcs++
		if lb <= rf.Bound() {
			ids[m] = e.id
			m++
		}
	}
	rf.Leaf(ids[:m], nil, qs)
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	ts := stats.TreeStats{}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		ts.TotalNodes++
		ts.MemBytes += int64(len(n.entries))*int64(16*len(ix.xform.Widths())) + 48
		if n.level == 0 {
			ts.LeafNodes++
			ts.FillFactors = append(ts.FillFactors, float64(len(n.entries))/float64(ix.maxCap))
			ts.LeafDepths = append(ts.LeafDepths, depth)
			ts.DiskBytes += int64(len(n.entries)) * ix.c.File.SeriesBytes()
			return
		}
		for _, e := range n.entries {
			walk(e.child, depth+1)
		}
	}
	walk(ix.root, 0)
	return ts
}

// LeafMembers implements core.LeafBounder.
func (ix *Index) LeafMembers() [][]int {
	var out [][]int
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 0 {
			if len(n.entries) > 0 {
				ids := make([]int, len(n.entries))
				for i, e := range n.entries {
					ids[i] = e.id
				}
				out = append(out, ids)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(ix.root)
	return out
}

// LeafLB implements core.LeafBounder.
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	var leaves []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.level == 0 {
			if len(n.entries) > 0 {
				leaves = append(leaves, n)
			}
			return
		}
		for _, e := range n.entries {
			walk(e.child)
		}
	}
	walk(ix.root)
	if leaf < 0 || leaf >= len(leaves) {
		return math.NaN()
	}
	qpaa := ix.xform.Apply(q)
	lo, hi := mbr(leaves[leaf].entries)
	return math.Sqrt(ix.xform.LowerBoundToRect(qpaa, lo, hi))
}
