// Package sfatrie implements the SFA trie of Schäfer & Högqvist: series are
// summarized with Symbolic Fourier Approximation (package sfa) and organized
// in a prefix tree with fanout equal to the alphabet size. When a leaf
// overflows, the word length of its series grows by one symbol (one more
// Fourier feature dimension) and the series are redistributed — "SFA adds a
// new dimension" (vertical splitting, in the paper's taxonomy).
//
// Exact queries use an ng-approximate descent to obtain a best-so-far, then
// a best-first traversal pruned with SFA lower bounds; leaf visits use the
// tight DFT-MBR bound, as the paper's re-implementation does.
package sfatrie

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/transform/sfa"
)

func init() {
	core.Register("SFA", func(opts core.Options) core.Method { return New(opts) })
}

// Index is the SFA trie.
type Index struct {
	opts  core.Options
	c     *core.Collection
	xform *sfa.Transform
	root  *node
	// feats caches the Fourier features of every series, back-to-back with
	// stride Dims (series i at [i*Dims, (i+1)*Dims)) — conceptually stored
	// with the leaf entries on disk; words holds the SFA words in the same
	// flat layout. Use feat/word for per-series views.
	feats     []float64
	words     []uint8
	numNodes  int
	numLeaves int
	leafCache []*node // deterministic leaf order for LeafBounder
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
}

// feat returns series id's feature vector (a view; do not mutate).
func (ix *Index) feat(id int) []float64 {
	d := ix.xform.Dims()
	return ix.feats[id*d : (id+1)*d : (id+1)*d]
}

// word returns series id's SFA word (a view; do not mutate).
func (ix *Index) word(id int) []uint8 {
	d := ix.xform.Dims()
	return ix.words[id*d : (id+1)*d : (id+1)*d]
}

type node struct {
	prefix   []uint8 // SFA word prefix represented by this node
	depth    int     // == len(prefix)
	children map[uint8]*node
	// leaf payload
	isLeaf  bool
	members []int
	// mbrLo/mbrHi are the halves of one contiguous block (see setMBR): the
	// feature-space MBR over members, streamed as a unit by the leaf bound.
	mbrLo []float64
	mbrHi []float64
}

// setMBR points the leaf's MBR views at the halves of one contiguous
// backing of 2·d values (lo | hi).
func (n *node) setMBR(block []float64) {
	d := len(block) / 2
	n.mbrLo = block[:d:d]
	n.mbrHi = block[d : 2*d : 2*d]
}

// New creates an SFA trie with the given options.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "SFA" }

// Build implements core.Method.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("sfatrie: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("sfatrie: empty collection")
	}

	binning := sfa.EquiDepth
	if ix.opts.SFAEquiWidth {
		binning = sfa.EquiWidth
	}
	// One pass computes every series' features; the MCB breakpoints are
	// learned from the sampled rows of that same array.
	c.File.ChargeFullScan()
	n := c.File.Len()
	t, feats, err := sfa.TrainAll(n, c.File.Peek, c.File.SeriesLen(), sfa.Options{
		Dims:       ix.opts.Segments,
		Alphabet:   ix.opts.SFAAlphabet,
		Binning:    binning,
		SampleSize: ix.opts.SampleSize,
	})
	if err != nil {
		return fmt.Errorf("sfatrie: %w", err)
	}
	ix.xform, ix.feats = t, feats

	d := t.Dims()
	ix.words = make([]uint8, n*d)
	for i := 0; i < n; i++ {
		t.WordInto(ix.feat(i), ix.word(i))
	}

	ix.root = &node{children: map[uint8]*node{}}
	ix.numNodes = 1
	for i := 0; i < n; i++ {
		ix.insert(i)
	}
	// Bulk loading materializes the leaves (spills under a bounded budget).
	core.ChargeMaterialization(c, ix.opts)
	return nil
}

func (ix *Index) insert(id int) {
	cur := ix.root
	w := ix.word(id)
	for {
		if cur.isLeaf {
			cur.addMember(id, ix.feat(id))
			if len(cur.members) > ix.opts.LeafSize && cur.depth < ix.xform.Dims() {
				ix.split(cur)
			}
			return
		}
		sym := w[cur.depth]
		child, ok := cur.children[sym]
		if !ok {
			child = &node{
				prefix:   append(append([]uint8{}, cur.prefix...), sym),
				depth:    cur.depth + 1,
				isLeaf:   true,
				children: map[uint8]*node{},
			}
			cur.children[sym] = child
			ix.numNodes++
			ix.numLeaves++
		}
		cur = child
	}
}

func (n *node) addMember(id int, feat []float64) {
	n.members = append(n.members, id)
	if n.mbrLo == nil {
		n.setMBR(make([]float64, 2*len(feat)))
		copy(n.mbrLo, feat)
		copy(n.mbrHi, feat)
		return
	}
	for d, v := range feat {
		if v < n.mbrLo[d] {
			n.mbrLo[d] = v
		}
		if v > n.mbrHi[d] {
			n.mbrHi[d] = v
		}
	}
}

// split turns an overflowing leaf into an internal node whose children key
// on the next symbol (the SFA word grows by one dimension).
func (ix *Index) split(n *node) {
	members := n.members
	n.isLeaf = false
	n.members = nil
	n.mbrLo, n.mbrHi = nil, nil
	ix.numLeaves--
	for _, id := range members {
		sym := ix.words[id*ix.xform.Dims()+n.depth]
		child, ok := n.children[sym]
		if !ok {
			child = &node{
				prefix:   append(append([]uint8{}, n.prefix...), sym),
				depth:    n.depth + 1,
				isLeaf:   true,
				children: map[uint8]*node{},
			}
			n.children[sym] = child
			ix.numNodes++
			ix.numLeaves++
		}
		child.addMember(id, ix.feat(id))
	}
	// Children may themselves overflow (all members share a symbol).
	for _, child := range n.children {
		if len(child.members) > ix.opts.LeafSize && child.depth < ix.xform.Dims() {
			ix.split(child)
		}
	}
}

// lb returns the squared lower bound from query features to node n: the MBR
// bound for leaves (the "tight" SFA bound using DFT MBRs) and the symbolic
// prefix bound for internal nodes.
func (ix *Index) lb(qf []float64, n *node) float64 {
	if n.isLeaf && n.mbrLo != nil {
		// MBR bound on the dispatched kernel layer (the lo/hi halves are
		// parallel sections of one contiguous backing, see setMBR).
		return simd.IntervalDistSq(qf, n.mbrLo, n.mbrHi)
	}
	return ix.xform.MinDistPrefix(qf, n.prefix)
}

// KNN implements core.Method. Per-query state (order, result set, traversal
// heap) comes from the index's scratch pool.
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

// search is the one traversal behind every query mode. The spec's pruner
// owns all skip/stop decisions: an exact spec keeps the unrelaxed lb >=
// bound predicate (bit-identical answers), a δ-ε spec relaxes it by (1+ε)²
// and may stop at the PAC radius or a budget, and ng mode ends after the
// descent leaf.
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("sfatrie: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("sfatrie: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	qf := ix.xform.FeaturesInto(q, sc.Summary(ix.xform.Dims()), sc.Complex(len(q)))
	qw := ix.xform.WordInto(qf, sc.Word(len(qf)))
	ord := sc.Order(q)
	set := sc.KNN(k)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)
	rf := core.NewRefiner(ix.c, q, ord, set)

	// ng-approximate step: descend the query's own path to one leaf.
	if leaf := ix.descend(qw); leaf != nil {
		rf.Leaf(leaf.members, nil, &qs)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			pr.Finish(&qs)
			return set.Results(), qs, nil
		}
	}
	if spec.Mode == core.ModeNG {
		pr.Finish(&qs)
		return set.Results(), qs, nil
	}

	// Exact step: best-first traversal with lower-bound pruning. Leaves are
	// filtered a second time per member, against the member's own Fourier
	// features: the leaf MBR bound on a box that is a point.
	dims, feats := ix.xform.Dims(), ix.feats
	member := func(id int) float64 {
		ft := feats[id*dims : (id+1)*dims]
		return simd.IntervalDistSq(qf, ft, ft)
	}
	h := core.HeapOf[*node](sc)
	h.Push(0, ix.root)
	for h.Len() > 0 {
		if err := core.Canceled(ctx); err != nil {
			return nil, qs, err
		}
		l, n := h.PopMin()
		if pr.Prune(l, set.Bound()) {
			break
		}
		if n.isLeaf {
			if !n.visited(qw) { // approximate leaf already processed
				rf.Leaf(n.members, member, &qs)
			}
			if pr.Visit() || pr.StopSatisfied(set.Bound()) {
				break
			}
			continue
		}
		for _, child := range n.children {
			lb := ix.lb(qf, child)
			qs.LBCalcs++
			if !pr.Prune(lb, set.Bound()) {
				h.Push(lb, child)
			}
		}
		if pr.Visit() {
			break
		}
	}
	pr.Finish(&qs)
	return set.Results(), qs, nil
}

// visited reports whether this leaf is the one on the query word's own path
// (already processed by the approximate step). Comparing prefixes avoids
// storing per-query state in the tree.
func (n *node) visited(qw []uint8) bool {
	for i, sym := range n.prefix {
		if qw[i] != sym {
			return false
		}
	}
	return true
}

func (ix *Index) descend(qw []uint8) *node {
	cur := ix.root
	for !cur.isLeaf {
		child, ok := cur.children[qw[cur.depth]]
		if !ok {
			return nil // path ends before a leaf: approximate step finds nothing
		}
		cur = child
	}
	return cur
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	ts := stats.TreeStats{TotalNodes: ix.numNodes, LeafNodes: ix.numLeaves}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		// structure bookkeeping: prefix + map overhead + MBRs
		ts.MemBytes += int64(len(n.prefix)) + 64
		if n.isLeaf {
			ts.MemBytes += int64(16 * len(n.mbrLo))
			ts.DiskBytes += int64(len(n.members)) * (int64(ix.c.File.SeriesBytes()) + int64(ix.xform.Dims()))
			ts.FillFactors = append(ts.FillFactors, float64(len(n.members))/float64(ix.opts.LeafSize))
			ts.LeafDepths = append(ts.LeafDepths, depth)
			return
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(ix.root, 0)
	return ts
}

// leafNodes returns the non-empty leaves in deterministic (sorted-symbol
// depth-first) order, cached after the first call.
func (ix *Index) leafNodes() []*node {
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
		syms := make([]int, 0, len(n.children))
		for sym := range n.children {
			syms = append(syms, int(sym))
		}
		sort.Ints(syms)
		for _, sym := range syms {
			walk(n.children[uint8(sym)])
		}
	}
	walk(ix.root)
	ix.leafCache = out
	return out
}

// LeafMembers implements core.LeafBounder.
func (ix *Index) LeafMembers() [][]int {
	leaves := ix.leafNodes()
	out := make([][]int, len(leaves))
	for i, n := range leaves {
		out[i] = n.members
	}
	return out
}

// LeafLB implements core.LeafBounder.
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	leaves := ix.leafNodes()
	if leaf < 0 || leaf >= len(leaves) {
		return math.NaN()
	}
	qf := ix.xform.Features(q)
	return math.Sqrt(ix.lb(qf, leaves[leaf]))
}
