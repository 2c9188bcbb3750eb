package ads

import (
	"context"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/index/isaxtree"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// FullIndex is ADS-FULL, the non-adaptive variant the paper mentions in
// §3.2: "ADS-FULL is a non-adaptive version of ADS, that builds a full index
// using a double pass on the data" — the tree is identical to ADS+'s, but
// every leaf is materialized at construction time, so queries answer from
// leaves like iSAX2+ rather than skip-sequentially. It exists for
// completeness and for build-cost comparisons; the paper's figures evaluate
// only ADS+ (SIMS), so this variant is not registered in the method
// registry.
type FullIndex struct {
	opts core.Options
	c    *core.Collection
	tree *isaxtree.Tree
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
}

// NewFull creates an ADS-FULL index.
func NewFull(opts core.Options) *FullIndex { return &FullIndex{opts: opts} }

// Name implements core.Method.
func (ix *FullIndex) Name() string { return "ADS-FULL" }

// Build implements core.Method: the double pass — one sequential read to
// summarize and build the tree, a second to materialize every leaf.
func (ix *FullIndex) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("ads-full: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("ads-full: empty collection")
	}
	ix.tree = isaxtree.New(c.File.SeriesLen(), ix.opts.Segments, ix.opts.LeafSize)

	c.File.ChargeFullScan() // pass 1: summaries
	ix.tree.Summarize(c.File)
	ix.tree.InsertRange(0, c.File.Len())
	c.File.ChargeFullScan()                  // pass 2: read data again
	c.Counters.ChargeSeq(c.File.SizeBytes()) // ... and write the leaves
	return nil
}

// KNN implements core.Method: core.BestFirst over materialized leaves, each
// read whole (the iSAX2+ query pattern on the ADS tree shape, without its
// per-member filter).
func (ix *FullIndex) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	if ix.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("ads-full: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, stats.QueryStats{}, fmt.Errorf("ads-full: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	w := core.StateOf[isaxtree.Walker](sc)
	w.Reset(ix.tree, q, sc, false)
	return core.BestFirst(ctx, sc, ix.c, q, k, core.ApproxSpec{}, w)
}

// TreeStats implements core.TreeIndex.
func (ix *FullIndex) TreeStats() stats.TreeStats {
	return ix.tree.TreeStats(ix.c.File.SeriesBytes(), true)
}
