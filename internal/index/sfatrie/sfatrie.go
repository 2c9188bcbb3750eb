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

// search is the one traversal behind every query mode: core.BestFirst over
// the trie, with leaves filtered a second time per member against the
// member's own Fourier features — the leaf MBR bound on a box that is a
// point.
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if ix.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("sfatrie: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, stats.QueryStats{}, fmt.Errorf("sfatrie: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	qf := ix.xform.FeaturesInto(q, sc.Summary(ix.xform.Dims()), sc.Complex(len(q)))
	w := core.StateOf[walker](sc)
	*w = walker{ix: ix, qf: qf, qw: ix.xform.WordInto(qf, sc.Word(len(qf)))}
	return core.BestFirst(ctx, sc, ix.c, q, k, spec, w)
}

// walker is one query's view of the trie for core.BestFirst: the query's
// Fourier features and SFA word.
type walker struct {
	ix *Index
	qf []float64
	qw []uint8
}

// Descend implements core.Tree: the query word's own path.
func (w *walker) Descend() (*node, []int, bool) {
	n := w.ix.descend(w.qw)
	if n == nil {
		return nil, nil, false
	}
	return n, n.members, true
}

// Roots implements core.Tree.
func (w *walker) Roots(f *core.Frontier[*node], _ *stats.QueryStats) {
	f.Push(0, w.ix.root)
}

// Expand implements core.Tree.
func (w *walker) Expand(n *node, f *core.Frontier[*node], qs *stats.QueryStats) bool {
	if n.isLeaf {
		return false
	}
	for _, child := range n.children {
		lb := w.ix.lb(w.qf, child)
		qs.LBCalcs++
		f.Push(lb, child)
	}
	return true
}

// Refine implements core.Tree.
func (w *walker) Refine(n *node, rf *core.Refiner, qs *stats.QueryStats) {
	qf, dims, feats := w.qf, w.ix.xform.Dims(), w.ix.feats
	rf.Leaf(n.members, func(id int) float64 {
		ft := feats[id*dims : (id+1)*dims]
		return simd.IntervalDistSq(qf, ft, ft)
	}, qs)
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
