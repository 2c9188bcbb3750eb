// Package dstree implements the DSTree of Wang et al. ("A data-adaptive and
// dynamic segmentation index for whole matching on time series"): nodes carry
// their own segmentation of the series, summarized per segment by mean and
// standard deviation ranges (EAPCA, package eapca). Unlike SAX-based indexes
// with fixed split points, the DSTree chooses at every overflow among
//
//   - horizontal splits (partition on a segment's mean or std at the middle
//     of the node's observed range), and
//   - vertical splits (subdivide a segment, then split on a sub-segment) —
//     "EAPCA adds a new dimension or redistributes points along a dimension",
//
// ranked by a quality-of-split heuristic that favours the largest reduction
// of the node's summarization ranges. This data-adaptive clustering is what
// makes DSTree queries fast and its construction the most CPU-heavy of the
// summarization trees, the trade-off at the heart of the paper's findings.
//
// What construction costs: an insert computes the series' prefix sums once
// and one synopsis per level it descends, in the index's build scratch. A
// split of a leaf with m members under k segments computes the members'
// (mean, std) on the refined basis (at most 2k segments) once, then scores
// each of its at most 6k candidates by one pass of comparisons over those
// values — candidates × refined segments × members comparisons, nothing
// recomputed per candidate and nothing allocated but the two children.
//
// The lower/upper bounds use the per-segment reverse/forward triangle
// inequalities (see package eapca).
package dstree

import (
	"context"
	"fmt"
	"math"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/storage"
	"hydra/internal/transform/eapca"
)

func init() {
	core.Register("DSTree", func(opts core.Options) core.Method { return New(opts) })
}

type splitKind uint8

const (
	splitMean splitKind = iota
	splitStd
)

type node struct {
	ends []int // exclusive per-segment end offsets
	// Synopsis over member series (min/max of per-segment mean and std).
	// The four arrays are parallel sections of one contiguous backing (see
	// newNode), so the lower-bound kernel streams one block per node
	// instead of chasing four separate heap allocations.
	minMean, maxMean []float64
	minStd, maxStd   []float64
	count            int

	isLeaf  bool
	members []int

	splitSeg int
	splitOn  splitKind
	splitVal float64
	children [2]*node
	depth    int
}

// Index is the DSTree method.
type Index struct {
	opts      core.Options
	c         *core.Collection
	root      *node
	numNodes  int
	numLeaves int
	leafCache []*node
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
	// hOnly disables vertical splits (ablation of the paper's
	// "data-adaptive partitioning" discussion, §5).
	hOnly bool
	// build is the working state of insert and split (see buildScratch).
	build buildScratch
	// syn is the per-member summary behind the second-level leaf filter:
	// block moments of every series, derived from the raw data wherever the
	// index meets new series (Build, Insert, DecodeIndex) and never stored.
	syn core.Synopses
}

// New creates a DSTree.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// NewHorizontalOnly creates a DSTree restricted to horizontal splits — the
// ablation showing why dynamic (vertical) segmentation is what gives the
// DSTree its pruning power; on Z-normalized data horizontal splits alone
// cannot discriminate at all on the initial whole-series segment.
func NewHorizontalOnly(opts core.Options) *Index { return &Index{opts: opts, hOnly: true} }

// Name implements core.Method.
func (ix *Index) Name() string { return "DSTree" }

// Build implements core.Method.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("dstree: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	n := c.File.SeriesLen()
	if c.File.Len() == 0 || n == 0 {
		return fmt.Errorf("dstree: empty collection")
	}
	ix.root = newNode([]int{n}, 0)
	ix.numNodes, ix.numLeaves = 1, 1

	c.File.ChargeFullScan()
	for i := 0; i < c.File.Len(); i++ {
		ix.insert(i)
	}
	ix.syn.Extend(c.File, 0, c.File.Len())
	// Leaf materialization (spills under a bounded memory budget).
	core.ChargeMaterialization(c, ix.opts)
	return nil
}

// Insert implements core.Ingester: each appended series descends the tree
// exactly like a build-time insert (updating node synopses and splitting
// overflowing leaves), and its raw data is charged as one sequential leaf
// write. Callers must exclude concurrent queries (the engine's ingest lock
// does).
func (ix *Index) Insert(ids []int) error {
	if ix.c == nil {
		return fmt.Errorf("dstree: method not built")
	}
	if len(ids) == 0 {
		return nil
	}
	for _, id := range ids {
		ix.insert(id)
	}
	ix.syn.Extend(ix.c.File, ids[0], ids[len(ids)-1]+1)
	ix.c.Counters.ChargeSeq(int64(len(ids)) * ix.c.File.SeriesBytes())
	return nil
}

func newNode(ends []int, depth int) *node {
	nd := &node{ends: ends, isLeaf: true, depth: depth}
	nd.attachSynopsis(make([]float64, 4*len(ends)))
	for i := range nd.ends {
		nd.minMean[i] = math.Inf(1)
		nd.maxMean[i] = math.Inf(-1)
		nd.minStd[i] = math.Inf(1)
		nd.maxStd[i] = math.Inf(-1)
	}
	return nd
}

// attachSynopsis slices the node's four parallel synopsis arrays out of one
// contiguous backing of 4·len(ends) values: minMean | maxMean | minStd |
// maxStd.
func (nd *node) attachSynopsis(syn []float64) {
	k := len(nd.ends)
	nd.minMean = syn[0*k : 1*k : 1*k]
	nd.maxMean = syn[1*k : 2*k : 2*k]
	nd.minStd = syn[2*k : 3*k : 3*k]
	nd.maxStd = syn[3*k : 4*k : 4*k]
}

// update extends the node synopsis with one series' EAPCA.
func (nd *node) update(syn eapca.Synopsis) {
	for i := range nd.ends {
		if syn.Mean[i] < nd.minMean[i] {
			nd.minMean[i] = syn.Mean[i]
		}
		if syn.Mean[i] > nd.maxMean[i] {
			nd.maxMean[i] = syn.Mean[i]
		}
		if syn.Std[i] < nd.minStd[i] {
			nd.minStd[i] = syn.Std[i]
		}
		if syn.Std[i] > nd.maxStd[i] {
			nd.maxStd[i] = syn.Std[i]
		}
	}
	nd.count++
}

// route returns which child of an internal node the series with prefix p
// falls into.
func (nd *node) route(p eapca.Prefix) int {
	child := nd.children[0]
	lo := 0
	if nd.splitSeg > 0 {
		lo = child.ends[nd.splitSeg-1]
	}
	hi := child.ends[nd.splitSeg]
	mean, std := p.MeanStd(lo, hi)
	v := mean
	if nd.splitOn == splitStd {
		v = std
	}
	if v <= nd.splitVal {
		return 0
	}
	return 1
}

func (ix *Index) insert(id int) {
	sc := &ix.build
	raw := ix.c.File.Peek(id)
	p := eapca.NewPrefixInto(raw, sc.floats(&sc.prefix, 2*(len(raw)+1)))
	nd := ix.root
	for {
		nd.update(eapca.ComputeInto(p, nd.ends, sc.floats(&sc.syn, 2*len(nd.ends))))
		if nd.isLeaf {
			break
		}
		nd = nd.children[nd.route(p)]
	}
	nd.members = append(nd.members, id)
	ix.leafCache = nil
	if len(nd.members) > ix.opts.LeafSize {
		ix.split(nd)
	}
}

// buildScratch is the reusable working state of insert and split. Build is
// single-threaded and Insert runs under the engine's writer lock, so one
// scratch on the Index serves every insert; queries never touch it (their
// buffers come from the scratch pool). Buffers grow on demand and are never
// shrunk.
type buildScratch struct {
	prefix []float64 // insert: the series' prefix sums
	syn    []float64 // insert/apply: one series' synopsis under one node's segmentation

	// split: the overflowing leaf's members, by position in nd.members.
	prefixBuf []float64      // backing of prefixes
	prefixes  []eapca.Prefix // prefix sums of every member
	// means and stds hold every member's (mean, std) on the split's refined
	// basis, segment-major: segment j's values at [j*m, (j+1)*m).
	means, stds []float64
	// hMean and hStd hold the members' values on the one segment a
	// horizontal candidate splits (a vertical candidate's sub-segment is a
	// basis segment, so its values are read from means/stds directly).
	hMean, hStd []float64
	// side marks the members the candidate under evaluation sends to the
	// right child; bestSide is the winner's copy.
	side, bestSide []bool
}

// floats returns *buf resized to n values, growing it when needed.
func (sc *buildScratch) floats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// load computes the prefix sums of every member and their (mean, std) on
// the basis segmentation.
func (sc *buildScratch) load(f *storage.SeriesFile, members, basis []int) {
	m, stride := len(members), 2*(f.SeriesLen()+1)
	buf := sc.floats(&sc.prefixBuf, m*stride)
	sc.prefixes = sc.prefixes[:0]
	for i, id := range members {
		sc.prefixes = append(sc.prefixes, eapca.NewPrefixInto(f.Peek(id), buf[i*stride:(i+1)*stride]))
	}
	means := sc.floats(&sc.means, len(basis)*m)
	stds := sc.floats(&sc.stds, len(basis)*m)
	lo := 0
	for j, hi := range basis {
		for i, p := range sc.prefixes {
			means[j*m+i], stds[j*m+i] = p.MeanStd(lo, hi)
		}
		lo = hi
	}
	if cap(sc.side) < m {
		sc.side, sc.bestSide = make([]bool, m), make([]bool, m)
	}
	sc.side, sc.bestSide = sc.side[:m], sc.bestSide[:m]
}

// candidate describes one possible split of a leaf.
type candidate struct {
	// vseg is the segment of the leaf's segmentation a vertical split
	// halves, -1 for a horizontal split.
	vseg    int
	seg     int // split segment in the children's segmentation
	on      splitKind
	val     float64
	quality float64
}

// split evaluates horizontal and vertical candidates and applies the best.
//
// Candidate quality is measured on a common refined basis (every segment of
// the node's segmentation halved). Without a common basis, coarse
// segmentations win spuriously: on Z-normalized data a whole-series segment
// has (mean, std) ≈ (0, 1) for every member, so an h-split on normalization
// noise would measure as "perfectly tight" while hiding all within-segment
// variance — exactly the degenerate behaviour the DSTree's QoS formulation
// avoids by accounting for variance inside segments.
//
// The members' values on that basis are the same for every candidate, so
// they are computed once (buildScratch.load); a candidate then costs one
// comparison pass over them, and only the winner is materialized.
func (ix *Index) split(nd *node) {
	sc := &ix.build
	basis := refineAll(nd.ends)
	sc.load(ix.c.File, nd.members, basis)

	var best candidate
	found := false
	ix.candidates(nd, func(cand candidate, vals []float64) {
		var ok bool
		if cand.val, cand.quality, ok = sc.evaluate(vals, basis); !ok {
			return
		}
		if !found || cand.quality < best.quality {
			best, found = cand, true
			copy(sc.bestSide, sc.side)
		}
	})
	if !found {
		return // indistinguishable members: oversized leaf allowed
	}
	ix.apply(nd, best)
}

// candidates calls yield for every candidate split of leaf nd, whose members
// the scratch holds (buildScratch.load), together with the members' values
// on the segment the candidate thresholds. The order is the ranking order:
// of two candidates of equal quality the earlier one wins.
func (ix *Index) candidates(nd *node, yield func(cand candidate, vals []float64)) {
	sc := &ix.build
	m := len(nd.members)

	// Horizontal splits on the node's own segmentation.
	hMean, hStd := sc.floats(&sc.hMean, m), sc.floats(&sc.hStd, m)
	lo := 0
	for s, hi := range nd.ends {
		for i, p := range sc.prefixes {
			hMean[i], hStd[i] = p.MeanStd(lo, hi)
		}
		yield(candidate{vseg: -1, seg: s, on: splitMean}, hMean)
		yield(candidate{vseg: -1, seg: s, on: splitStd}, hStd)
		lo = hi
	}
	if ix.hOnly {
		return
	}
	// Vertical splits: subdivide each wide-enough segment, then split on
	// either sub-segment — basis segments j and j+1, whose values load
	// already holds.
	lo, j := 0, 0
	for s, hi := range nd.ends {
		if hi-lo < 2 {
			lo, j = hi, j+1
			continue
		}
		for sub := 0; sub < 2; sub++ {
			row := (j + sub) * m
			yield(candidate{vseg: s, seg: s + sub, on: splitMean}, sc.means[row:row+m])
			yield(candidate{vseg: s, seg: s + sub, on: splitStd}, sc.stds[row:row+m])
		}
		lo, j = hi, j+2
	}
}

// apply turns leaf nd into an internal node according to the chosen split,
// handing each member (with the prefix sums split already holds) to the
// child sc.bestSide names, in member order.
func (ix *Index) apply(nd *node, best candidate) {
	sc := &ix.build
	ends := childEnds(nd.ends, best.vseg)
	members := nd.members
	nd.isLeaf = false
	nd.members = nil
	nd.splitSeg = best.seg
	nd.splitOn = best.on
	nd.splitVal = best.val
	ix.numLeaves--
	for b := range nd.children {
		nd.children[b] = newNode(ends, nd.depth+1)
		ix.numNodes++
		ix.numLeaves++
	}
	for i, id := range members {
		child := nd.children[0]
		if sc.bestSide[i] {
			child = nd.children[1]
		}
		child.update(eapca.ComputeInto(sc.prefixes[i], ends, sc.floats(&sc.syn, 2*len(ends))))
		child.members = append(child.members, id)
	}
	// The scratch is free again: a child that still overflows (possible
	// only under an oversized, previously unsplittable leaf) reuses it.
	for _, child := range nd.children {
		if len(child.members) > ix.opts.LeafSize {
			ix.split(child)
		}
	}
}

// childEnds returns the segmentation the children of a split inherit: a
// copy of the leaf's, with segment vseg halved when the split is vertical
// (vseg >= 0).
func childEnds(ends []int, vseg int) []int {
	out := make([]int, 0, len(ends)+1)
	if vseg < 0 {
		return append(out, ends...)
	}
	lo := 0
	if vseg > 0 {
		lo = ends[vseg-1]
	}
	out = append(out, ends[:vseg]...)
	out = append(out, (lo+ends[vseg])/2)
	return append(out, ends[vseg:]...)
}

// refineAll halves every segment of width >= 2, producing the common
// measurement basis for candidate comparison.
func refineAll(ends []int) []int {
	out := make([]int, 0, 2*len(ends))
	lo := 0
	for _, hi := range ends {
		if hi-lo >= 2 {
			out = append(out, (lo+hi)/2)
		}
		out = append(out, hi)
		lo = hi
	}
	return out
}

// evaluate scores the candidate that splits the members on vals (one value
// per member) at the middle of their range: it returns that threshold and
// the candidate's quality, and leaves the members' sides in sc.side. ok is
// false when the split cannot separate the members.
//
// Quality is the member-weighted sum of the two children's summarization
// ranges on the common basis (smaller ranges = tighter bounds = better
// clustering), a child's range being
// Σ_seg w·((maxMean−minMean)² + (maxStd−minStd)² + maxStd²). The maxStd²
// term charges the variance remaining inside segments, which is what makes
// vertical splits (finer segmentations) pay off. Scoring is one pass of
// comparisons over the basis values load computed: candidates × basis
// segments × members, nothing recomputed.
func (sc *buildScratch) evaluate(vals []float64, basis []int) (threshold, quality float64, ok bool) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		return 0, 0, false
	}
	threshold = (lo + hi) / 2
	m := len(vals)
	side := sc.side[:m]
	var count [2]int
	for i, v := range vals {
		side[i] = !(v <= threshold)
		if side[i] {
			count[1]++
		}
	}
	count[0] = m - count[1]
	if count[0] == 0 || count[1] == 0 {
		return 0, 0, false
	}

	var total [2]float64
	start := 0
	for j, end := range basis {
		means, stds := sc.means[j*m:(j+1)*m], sc.stds[j*m:(j+1)*m]
		minM := [2]float64{math.Inf(1), math.Inf(1)}
		maxM := [2]float64{math.Inf(-1), math.Inf(-1)}
		minS, maxS := minM, maxM
		for i, right := range side {
			b := 0
			if right {
				b = 1
			}
			mean, std := means[i], stds[i]
			minM[b] = min(minM[b], mean)
			maxM[b] = max(maxM[b], mean)
			minS[b] = min(minS[b], std)
			maxS[b] = max(maxS[b], std)
		}
		w := float64(end - start)
		for b := range total {
			dm := maxM[b] - minM[b]
			ds := maxS[b] - minS[b]
			total[b] += w * (dm*dm + ds*ds + maxS[b]*maxS[b])
		}
		start = end
	}
	var q float64
	for b := range total {
		q += float64(count[b]) * total[b]
	}
	return threshold, q / float64(m), true
}

// lbWith returns the squared lower-bounding distance between the query (as
// prefix sums) and any series inside node nd, using buf (length at least
// 3·len(nd.ends)) as scratch for the query's per-segment (mean, std, width)
// triple. The segment loop runs on the dispatched EAPCA kernel
// (simd.EAPCABound) over the node's contiguous synopsis block.
func lbWith(qp eapca.Prefix, nd *node, buf []float64) float64 {
	qm, qs, w := fillQueryTriple(qp, nd.ends, buf)
	return simd.EAPCABound(qm, qs, w, nd.minMean, nd.maxMean, nd.minStd, nd.maxStd)
}

// fillQueryTriple slices buf (length at least 3·len(ends)) into the
// (mean, std, width) arrays of the query under the given segmentation and
// fills them — the shared setup of lbWith and lbPair, so the triple layout
// the EAPCA kernel consumes is defined in exactly one place.
func fillQueryTriple(qp eapca.Prefix, ends []int, buf []float64) (qm, qs, w []float64) {
	k := len(ends)
	qm, qs, w = buf[:k:k], buf[k:2*k:2*k], buf[2*k:3*k:3*k]
	lo := 0
	for s, hi := range ends {
		qm[s], qs[s] = qp.MeanStd(lo, hi)
		w[s] = float64(hi - lo)
		lo = hi
	}
	return qm, qs, w
}

// lb is lbWith with a freshly allocated scratch — for callers outside the
// pooled query paths (tests, diagnostics).
func lb(qp eapca.Prefix, nd *node) float64 {
	return lbWith(qp, nd, make([]float64, 3*len(nd.ends)))
}

// lbPair scores both children of an internal node in one pass — the batched
// form of lb for the DSTree's natural candidate set. Siblings share their
// segmentation (apply gives both the winning candidate's ends), so the
// query's per-segment (mean, std, width) triple is computed once into buf
// and both synopsis blocks are scored against it; each child's sum
// accumulates exactly as in lbWith, so the bounds are bit-identical across
// backends. Hand-crafted snapshots could in principle carry siblings with
// different (individually valid) segmentations; those fall back to two
// plain lb calls.
func lbPair(qp eapca.Prefix, a, b *node, buf []float64) (la, lbd float64) {
	if !sameEnds(a.ends, b.ends) {
		return lb(qp, a), lb(qp, b)
	}
	qm, qs, w := fillQueryTriple(qp, a.ends, buf)
	la = simd.EAPCABound(qm, qs, w, a.minMean, a.maxMean, a.minStd, a.maxStd)
	lbd = simd.EAPCABound(qm, qs, w, b.minMean, b.maxMean, b.minStd, b.maxStd)
	return la, lbd
}

func sameEnds(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true // siblings built by apply share the ends slice
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KNN implements core.Method. Per-query state (query prefix sums, order,
// result set, traversal heap) comes from the index's scratch pool, and
// sibling bounds are scored pairwise by lbPair over the nodes' contiguous
// synopsis blocks.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	return ix.search(ctx, q, k, core.ApproxSpec{})
}

// KNNApprox implements core.ApproxSearcher: the full approximate mode
// lattice over the one traversal KNN uses, so an exact spec answers
// bit-identically to KNN.
func (ix *Index) KNNApprox(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, stats.QueryStats{}, err
	}
	return ix.search(ctx, q, k, spec)
}

// search is the one traversal behind every query mode: core.BestFirst over
// the tree, siblings scored pairwise (lbPair). Within a leaf the walk reads,
// a member's raw series is compared only if its synopsis bound beats the
// best-so-far (core.Refiner's exact member predicate, in every mode); the
// descent leaf is refined unfiltered, so ng answers and counters are those
// of the plain leaf scan.
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if ix.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("dstree: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, stats.QueryStats{}, fmt.Errorf("dstree: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	w := core.StateOf[walker](sc)
	*w = walker{ix: ix, sc: sc, q: q, qp: eapca.NewPrefixInto(q, sc.Summary(2*(len(q)+1)))}
	return core.BestFirst(ctx, sc, ix.c, q, k, spec, w)
}

// walker is one query's view of the tree for core.BestFirst: the query's
// prefix sums, and its block-moment record once the ng step is done.
type walker struct {
	ix *Index
	sc *core.Scratch
	q  series.Series
	qp eapca.Prefix
	sq core.SynopsisQuery
}

// Descend implements core.Tree: the split predicates lead to one leaf.
func (w *walker) Descend() (*node, []int, bool) {
	n := w.ix.root
	for !n.isLeaf {
		n = n.children[n.route(w.qp)]
	}
	return n, n.members, true
}

// Roots implements core.Tree. The query's synopsis record is computed here,
// after the ng return, so ng queries never pay for it.
func (w *walker) Roots(f *core.Frontier[*node], _ *stats.QueryStats) {
	w.sq = w.ix.syn.Query(w.q, w.sc.F32(w.ix.syn.RecordLen()))
	f.Push(0, w.ix.root)
}

// Expand implements core.Tree. The children's EAPCA bounds are loosened by
// the sidecar's slack (core.SynopsisQuery.Loosen): a query element near
// 1e19 cancels its prefix sums enough to lift a bound above the refine
// kernel's distance to a tied member.
func (w *walker) Expand(n *node, f *core.Frontier[*node], qs *stats.QueryStats) bool {
	if n.isLeaf {
		return false
	}
	c0, c1 := n.children[0], n.children[1]
	l0, l1 := lbPair(w.qp, c0, c1, w.sc.Aux(3*len(c0.ends)))
	qs.LBCalcs += 2
	f.Push(w.sq.Loosen(l0), c0)
	f.Push(w.sq.Loosen(l1), c1)
	return true
}

// Refine implements core.Tree: leaves are filtered per member against the
// block-moment sidecar.
func (w *walker) Refine(n *node, rf *core.Refiner, qs *stats.QueryStats) {
	rf.Leaf(n.members, w.sq.Bound, qs)
}

func (ix *Index) leaves() []*node {
	if ix.leafCache != nil {
		return ix.leafCache
	}
	var out []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.isLeaf {
			if len(n.members) > 0 {
				out = append(out, n)
			}
			return
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(ix.root)
	ix.leafCache = out
	return out
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	ts := stats.TreeStats{TotalNodes: ix.numNodes, LeafNodes: ix.numLeaves}
	var walk func(n *node)
	walk = func(n *node) {
		ts.MemBytes += int64(8*len(n.ends)*5) + 64
		if n.isLeaf {
			ts.FillFactors = append(ts.FillFactors, float64(len(n.members))/float64(ix.opts.LeafSize))
			ts.LeafDepths = append(ts.LeafDepths, n.depth)
			ts.MemBytes += int64(8 * len(n.members))
			ts.DiskBytes += int64(len(n.members)) * ix.c.File.SeriesBytes()
			return
		}
		walk(n.children[0])
		walk(n.children[1])
	}
	walk(ix.root)
	ts.MemBytes += ix.syn.Bytes()
	return ts
}

// LeafMembers implements core.LeafBounder.
func (ix *Index) LeafMembers() [][]int {
	ls := ix.leaves()
	out := make([][]int, len(ls))
	for i, n := range ls {
		out[i] = n.members
	}
	return out
}

// LeafLB implements core.LeafBounder.
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	ls := ix.leaves()
	if leaf < 0 || leaf >= len(ls) {
		return math.NaN()
	}
	return math.Sqrt(lb(eapca.NewPrefix(q), ls[leaf]))
}
