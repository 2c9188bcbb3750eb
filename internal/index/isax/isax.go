// Package isax implements iSAX2+ (Camerra et al.), the bulk-loading iSAX
// index: series are summarized as iSAX words, organized in the binary-split
// iSAX tree (package isaxtree), and the raw data is materialized into leaf
// files at the end of bulk loading (iSAX2+'s contribution over iSAX 2.0 is
// minimizing raw-data movement during loading, which the charge model below
// reflects by writing each raw series once).
//
// Exact queries follow the standard two-step scheme: an ng-approximate
// descent along the query's own iSAX path produces a best-so-far, then a
// best-first traversal prunes subtrees whose lower-bounding distance exceeds
// the k-th best distance found.
package isax

import (
	"context"
	"fmt"
	"math"

	"hydra/internal/core"
	"hydra/internal/index/isaxtree"
	"hydra/internal/series"
	"hydra/internal/stats"
)

func init() {
	core.Register("iSAX2+", func(opts core.Options) core.Method { return New(opts) })
}

// Index is the iSAX2+ method.
type Index struct {
	opts core.Options
	c    *core.Collection
	tree *isaxtree.Tree
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
}

// New creates an iSAX2+ index.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "iSAX2+" }

// Build implements core.Method.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("isax: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("isax: empty collection")
	}
	ix.tree = isaxtree.New(c.File.SeriesLen(), ix.opts.Segments, ix.opts.LeafSize)

	// Bulk loading: one sequential read to summarize, tree construction over
	// summaries in memory, then one sequential write materializing leaves.
	c.File.ChargeFullScan()
	ix.tree.Summarize(c.File)
	ix.tree.InsertRange(0, c.File.Len())
	core.ChargeMaterialization(c, ix.opts)
	return nil
}

// Insert implements core.Ingester: each appended series is summarized and
// placed in the tree, and its raw data is charged as one sequential leaf
// write (the incremental slice of Build's materialization pass). Callers
// must exclude concurrent queries (the engine's ingest lock does).
func (ix *Index) Insert(ids []int) error {
	if ix.c == nil {
		return fmt.Errorf("isax: method not built")
	}
	for _, id := range ids {
		ix.tree.AppendSummary(ix.c.File, id)
		ix.tree.Insert(id)
	}
	ix.c.Counters.ChargeSeq(int64(len(ids)) * ix.c.File.SeriesBytes())
	return nil
}

// KNN implements core.Method. Per-query state (query summary, order, result
// set, traversal heap) comes from the index's scratch pool.
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
// the tree, with leaves filtered a second time per member against the
// full-cardinality words the tree keeps from the build (see
// isaxtree.Walker).
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if ix.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("isax: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, stats.QueryStats{}, fmt.Errorf("isax: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	w := core.StateOf[isaxtree.Walker](sc)
	w.Reset(ix.tree, q, sc, true)
	return core.BestFirst(ctx, sc, ix.c, q, k, spec, w)
}

// TreeStats implements core.TreeIndex.
func (ix *Index) TreeStats() stats.TreeStats {
	return ix.tree.TreeStats(ix.c.File.SeriesBytes(), true)
}

// LeafMembers implements core.LeafBounder.
func (ix *Index) LeafMembers() [][]int {
	leaves := ix.tree.Leaves()
	out := make([][]int, 0, len(leaves))
	for _, n := range leaves {
		if len(n.Members) > 0 {
			out = append(out, n.Members)
		}
	}
	return out
}

// LeafLB implements core.LeafBounder.
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	leaves := ix.tree.Leaves()
	nonEmpty := make([]*isaxtree.Node, 0, len(leaves))
	for _, n := range leaves {
		if len(n.Members) > 0 {
			nonEmpty = append(nonEmpty, n)
		}
	}
	if leaf < 0 || leaf >= len(nonEmpty) {
		return math.NaN()
	}
	qpaa := ix.tree.PAA.Apply(q)
	return math.Sqrt(ix.tree.MinDist(qpaa, nonEmpty[leaf]))
}

// Tree exposes the underlying structure for white-box tests.
func (ix *Index) Tree() *isaxtree.Tree { return ix.tree }
