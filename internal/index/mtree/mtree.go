// Package mtree implements the M-tree of Ciaccia, Patella & Zezula: a
// metric-space access method that organizes raw series under routing objects
// with covering radii, pruning with the triangle inequality. As in the
// paper — whose only M-tree implementation that scaled past 1 GB was
// memory-resident — this index holds its structure in memory and charges no
// simulated disk I/O; its cost is dominated by distance computations, which
// is precisely why it does not scale (paper Fig. 3e).
//
// Node splits use mM_RAD promotion over a bounded sample of candidate pairs
// (the original implementation's sampling strategy: "chooses the number of
// initial samples based on the leaf size, minimum utilization, and dataset
// size"), with generalized-hyperplane partitioning. A split computes each
// distance it needs once: one samples × entries matrix (samples <
// 2·maxPromotionSamples, see promotionStep) scores every candidate pair and
// partitions the node with the winning pair's rows, so promotion costs
// samples × entries distances per split, not 2 × entries per pair.
package mtree

import (
	"context"
	"fmt"
	"math"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
)

func init() {
	core.Register("M-tree", func(opts core.Options) core.Method { return New(opts) })
}

// maxPromotionSamples is the target number of promotion candidates per
// split, not a hard bound: candidates are taken every promotionStep entries,
// and the integer step leaves between maxPromotionSamples and
// 2·maxPromotionSamples−1 of them (17 at the default capacity's 17-entry
// overflow, 23 at 23 entries, 12 again at 24). The rule is part of every
// built tree, so it stays as it is.
const maxPromotionSamples = 12

// promotionStep returns the stride between promotion candidates in a node
// of the given number of entries, and how many candidates that stride yields.
func promotionStep(entries int) (step, samples int) {
	step = 1
	if entries > maxPromotionSamples {
		step = entries / maxPromotionSamples
	}
	return step, (entries + step - 1) / step
}

type entry struct {
	id           int     // object id (routing or data)
	child        *node   // nil for data entries
	radius       float64 // covering radius for routing entries
	distToParent float64 // distance to the parent routing object
}

type node struct {
	leaf    bool
	entries []entry
	depth   int
	// routingObj is the object id of this node's routing entry in its
	// parent (-1 for the root). Needed to maintain exact distToParent
	// values, on which the triangle-inequality pruning relies.
	routingObj int
}

// Index is the M-tree method.
type Index struct {
	opts core.Options
	c    *core.Collection
	root *node
	cap  int
	// distCalcsBuild counts construction-time distance computations (the
	// dominant cost of the M-tree).
	distCalcsBuild int64
	// promo is the split's samples × entries distance matrix, reused across
	// splits (construction is single-threaded).
	promo []float64
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
	// syn is the per-member summary data entries are tested against before
	// their raw series is read: block moments of every series, derived from
	// the raw data at Build and DecodeIndex and never stored.
	syn core.Synopses
}

// New creates an M-tree.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "M-tree" }

func (ix *Index) dist(a, b int) float64 {
	ix.distCalcsBuild++
	return series.Dist(ix.c.File.Peek(a), ix.c.File.Peek(b))
}

// Build implements core.Method.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("mtree: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("mtree: empty collection")
	}
	// The M-tree is a metric index on raw objects; minimum meaningful node
	// capacity is 2 (the paper's tuned leaf size was as low as 1, which maps
	// to the smallest capacity that still permits splits).
	ix.cap = ix.opts.LeafSize
	if ix.cap < 2 {
		ix.cap = 2
	}
	ix.root = &node{leaf: true, routingObj: -1}

	c.File.ChargeFullScan() // memory-resident: data read once
	for i := 0; i < c.File.Len(); i++ {
		ix.insert(i)
	}
	ix.syn.Extend(c.File, 0, c.File.Len())
	return nil
}

// insert adds object id, descending by minimal distance / minimal radius
// enlargement and updating covering radii on the way down.
func (ix *Index) insert(id int) {
	type pathStep struct {
		n        *node
		entryIdx int // entry in n leading to the next step
	}
	var path []pathStep
	n := ix.root
	// dp is the distance to the routing object chosen one level up — the
	// new entry's distToParent once the descent reaches a leaf.
	var dp float64
	for !n.leaf {
		best, bestKey := -1, math.Inf(1)
		needsEnlarge := true
		for i := range n.entries {
			e := &n.entries[i]
			d := ix.dist(id, e.id)
			if d <= e.radius {
				if needsEnlarge || d < bestKey {
					best, bestKey, dp = i, d, d
				}
				needsEnlarge = false
			} else if needsEnlarge {
				enl := d - e.radius
				if enl < bestKey {
					best, bestKey, dp = i, enl, d
				}
			}
		}
		e := &n.entries[best]
		if dp > e.radius {
			e.radius = dp
		}
		path = append(path, pathStep{n: n, entryIdx: best})
		n = e.child
	}
	n.entries = append(n.entries, entry{id: id, distToParent: dp})

	// Split bottom-up while nodes overflow.
	for len(n.entries) > ix.cap {
		var parent *node
		var parentEntry int
		if len(path) > 0 {
			parent = path[len(path)-1].n
			parentEntry = path[len(path)-1].entryIdx
			path = path[:len(path)-1]
		}
		n = ix.split(n, parent, parentEntry)
		if n == nil {
			return
		}
	}
}

// promotionRow returns row s of the split's distance matrix for a node of
// the given number of entries.
func (ix *Index) promotionRow(s, entries int) []float64 {
	return ix.promo[s*entries : (s+1)*entries]
}

// pairRadii computes the two covering radii that would result from
// promoting the objects whose distance rows are d1s and d2s and assigning
// each entry to the nearer one.
func pairRadii(entries []entry, d1s, d2s []float64) (r1, r2 float64) {
	for e := range entries {
		d1, d2 := d1s[e], d2s[e]
		ext := entries[e].radius // 0 for data entries
		if d1 <= d2 {
			r1 = max(r1, d1+ext)
		} else {
			r2 = max(r2, d2+ext)
		}
	}
	return r1, r2
}

// promote picks the routing objects of a split by mM_RAD over the sampled
// pairs — the pair minimizing the larger of its two covering radii — and
// returns their entry indices and distance rows. It fills the distance
// matrix first: row s holds the distance from every entry to promotion
// candidate s, which is entry s·step.
func (ix *Index) promote(entries []entry) (i1, i2 int, d1s, d2s []float64) {
	n := len(entries)
	step, samples := promotionStep(n)
	if cap(ix.promo) < samples*n {
		ix.promo = make([]float64, samples*n)
	}
	for s := 0; s < samples; s++ {
		row, o := ix.promotionRow(s, n), entries[s*step].id
		for e := range entries {
			row[e] = ix.dist(entries[e].id, o)
		}
	}
	bestI, bestJ, bestRad := 0, 1, math.Inf(1)
	for i := 0; i < samples; i++ {
		for j := i + 1; j < samples; j++ {
			r1, r2 := pairRadii(entries, ix.promotionRow(i, n), ix.promotionRow(j, n))
			if m := max(r1, r2); m < bestRad {
				bestI, bestJ, bestRad = i, j, m
			}
		}
	}
	return bestI * step, bestJ * step, ix.promotionRow(bestI, n), ix.promotionRow(bestJ, n)
}

// split partitions node n, replacing its parent entry with two routing
// entries. Returns the parent if it now overflows, nil otherwise.
func (ix *Index) split(n *node, parent *node, parentEntry int) *node {
	entries := n.entries
	i1, i2, d1s, d2s := ix.promote(entries)
	o1, o2 := entries[i1].id, entries[i2].id

	left := &node{leaf: n.leaf, depth: n.depth, routingObj: o1}
	right := &node{leaf: n.leaf, depth: n.depth, routingObj: o2}
	var r1, r2 float64
	for i, e := range entries {
		d1, d2 := d1s[i], d2s[i]
		if d1 <= d2 {
			e.distToParent = d1
			left.entries = append(left.entries, e)
			r1 = max(r1, d1+e.radius)
		} else {
			e.distToParent = d2
			right.entries = append(right.entries, e)
			r2 = max(r2, d2+e.radius)
		}
	}

	e1 := entry{id: o1, child: left, radius: r1}
	e2 := entry{id: o2, child: right, radius: r2}
	if parent == nil {
		// Root split: new root one level up. The root has no routing
		// object, so its entries' distToParent values are never consulted.
		newRoot := &node{leaf: false, routingObj: -1}
		newRoot.entries = []entry{e1, e2}
		ix.root = newRoot
		ix.bumpDepth(ix.root, 0)
		return nil
	}
	// Exact distances to the parent node's own routing object keep the
	// triangle-inequality estimates sound.
	if parent.routingObj >= 0 {
		e1.distToParent = ix.dist(o1, parent.routingObj)
		e2.distToParent = ix.dist(o2, parent.routingObj)
	}
	parent.entries[parentEntry] = e1
	parent.entries = append(parent.entries, e2)
	return parent
}

func (ix *Index) bumpDepth(n *node, d int) {
	n.depth = d
	for _, e := range n.entries {
		if e.child != nil {
			ix.bumpDepth(e.child, d+1)
		}
	}
}

// visit is a queued node with what the triangle inequality needs from the
// level above: d(query, the node's routing object), absent for the root.
type visit struct {
	n      *node
	distQP float64
	haveQP bool
}

// KNN implements core.Method: best-first k-NN with triangle-inequality
// pruning (Hjaltason & Samet style on the M-tree). NodesVisited counts the
// popped nodes; LBCalcs counts the bounds that cost no distance — one per
// parent-distance estimate, one per routing bound d(q, o) − radius and one
// per synopsis bound of a data entry.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("mtree: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("mtree: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	ord := sc.Order(q)
	set := sc.KNN(k)
	// The M-tree is memory-resident: its members are compared in place and
	// charge no I/O, so the cursor's record stays empty and is not flushed.
	cur := ix.c.File.Cursor()
	rf := core.NewRefiner(&cur, q, ord, set)
	sq := ix.syn.Query(q, sc.F32(ix.syn.RecordLen()))

	// sqBound is the result set's bound and bound its root, the unit the
	// triangle inequality works in. Only a refined data entry changes the
	// set, so only there are the two refreshed.
	sqBound := set.Bound()
	bound := math.Sqrt(sqBound)
	h := core.HeapOf[visit](sc)
	h.Push(0, visit{n: ix.root})
	for h.Len() > 0 {
		if err := core.Canceled(ctx); err != nil {
			return nil, qs, err
		}
		lb, it := h.PopMin()
		if lb > bound {
			break
		}
		qs.NodesVisited++
		for _, e := range it.n.entries {
			// Parent-distance shortcut: |d(q,parent) − d(parent,obj)| lower
			// bounds d(q,obj); skip the expensive distance when possible.
			if it.haveQP {
				qs.LBCalcs++
				est := math.Abs(it.distQP - e.distToParent)
				if e.child != nil {
					est -= e.radius
				}
				if est > bound {
					continue
				}
			}
			if e.child == nil {
				// Second-level filter: the entry's raw series is read only
				// if its synopsis bound beats the best-so-far — the exact
				// member predicate of core.Refiner, so the set evolves as
				// without it.
				qs.LBCalcs++
				if sq.Bound(e.id) > sqBound {
					continue
				}
				// Data entries are refined like every other exact path, so
				// the reported distances carry the scan's bits; only routing
				// objects need the full distance (the triangle inequality
				// has no use for an abandoned partial sum).
				rf.Member(e.id, &qs)
				if b := set.Bound(); b != sqBound {
					sqBound, bound = b, math.Sqrt(b)
				}
				continue
			}
			qs.DistCalcs++
			d := series.Dist(q, cur.Peek(e.id))
			qs.LBCalcs++
			lb := d - e.radius
			if lb < 0 {
				lb = 0
			}
			if lb <= bound {
				h.Push(lb, visit{n: e.child, distQP: d, haveQP: true})
			}
		}
	}
	return set.Results(), qs, nil
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	ts := stats.TreeStats{}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		ts.TotalNodes++
		ts.MemBytes += int64(len(n.entries))*32 + 48
		if n.leaf {
			ts.LeafNodes++
			ts.FillFactors = append(ts.FillFactors, float64(len(n.entries))/float64(ix.cap))
			ts.LeafDepths = append(ts.LeafDepths, depth)
			// memory-resident: raw series are part of the in-memory footprint
			ts.MemBytes += int64(len(n.entries)) * ix.c.File.SeriesBytes()
			return
		}
		for _, e := range n.entries {
			walk(e.child, depth+1)
		}
	}
	walk(ix.root, 0)
	ts.MemBytes += ix.syn.Bytes()
	return ts
}

// BuildDistCalcs reports construction-time distance computations.
func (ix *Index) BuildDistCalcs() int64 { return ix.distCalcsBuild }
