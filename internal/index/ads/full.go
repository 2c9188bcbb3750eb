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

// KNN implements core.Method: approximate descent then best-first exact over
// materialized leaves (the iSAX2+ query pattern on the ADS tree shape).
func (ix *FullIndex) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("ads-full: method not built")
	}
	f := ix.c.File
	if len(q) != f.SeriesLen() {
		return nil, qs, fmt.Errorf("ads-full: query length %d, collection length %d", len(q), f.SeriesLen())
	}
	qpaa := ix.tree.PAA.Apply(q)
	qword := make([]uint8, len(qpaa))
	for i, v := range qpaa {
		qword[i] = ix.tree.Quant.Symbol(v)
	}
	ord := series.NewOrder(q)
	set := core.NewKNNSet(k)
	rf := core.NewRefiner(ix.c, q, ord, set)

	approx := ix.tree.ApproxLeaf(qword)
	if approx != nil {
		rf.Leaf(approx.Members, nil, &qs)
	}

	var h core.BoundHeap[*isaxtree.Node]
	for _, n := range ix.tree.Roots() {
		lb := ix.tree.MinDist(qpaa, n)
		qs.LBCalcs++
		h.Push(lb, n)
	}
	for h.Len() > 0 {
		if err := core.Canceled(ctx); err != nil {
			return nil, qs, err
		}
		lb, n := h.PopMin()
		if lb >= set.Bound() {
			break
		}
		if n.IsLeaf {
			if n != approx {
				rf.Leaf(n.Members, nil, &qs)
			}
			continue
		}
		for _, child := range n.Children {
			lb := ix.tree.MinDist(qpaa, child)
			qs.LBCalcs++
			if lb < set.Bound() {
				h.Push(lb, child)
			}
		}
	}
	return set.Results(), qs, nil
}

// TreeStats implements core.TreeIndex.
func (ix *FullIndex) TreeStats() stats.TreeStats {
	return ix.tree.TreeStats(ix.c.File.SeriesBytes(), true)
}
