package isax

import (
	"context"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/index/isaxtree"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// ApproxKNN implements core.ApproxMethod: iSAX's classic ng-approximate
// search follows the query's own iSAX path to one leaf ("traversing one path
// of an index structure, visiting at most one leaf, to get a baseline
// best-so-far match"). It is the ModeNG point of the shared traversal, so
// KNNApprox in ng mode returns exactly this answer.
func (ix *Index) ApproxKNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	if err := core.Canceled(ctx); err != nil {
		return nil, stats.QueryStats{}, err
	}
	return ix.search(ctx, q, k, core.ApproxSpec{Mode: core.ModeNG})
}

// RangeSearch implements core.RangeMethod.
func (ix *Index) RangeSearch(ctx context.Context, q series.Series, r float64) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("isax: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("isax: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	qpaa := ix.tree.PAA.Apply(q)
	set := core.NewRangeSet(r)
	var ctxErr error
	var walk func(n *isaxtree.Node)
	walk = func(n *isaxtree.Node) {
		if ctxErr != nil {
			return
		}
		if ctxErr = core.Canceled(ctx); ctxErr != nil {
			return
		}
		qs.LBCalcs++
		if ix.tree.MinDist(qpaa, n) > set.Bound() {
			return
		}
		if n.IsLeaf {
			if len(n.Members) == 0 {
				return
			}
			ix.c.File.ChargeLeafRead(len(n.Members))
			for _, id := range n.Members {
				d := series.SquaredDistEABlocked(q, ix.c.File.Peek(id), set.Bound())
				qs.DistCalcs++
				qs.RawSeriesExamined++
				set.Add(id, d)
			}
			return
		}
		walk(n.Children[0])
		walk(n.Children[1])
	}
	for _, n := range ix.tree.Roots() {
		walk(n)
	}
	if ctxErr != nil {
		return nil, qs, ctxErr
	}
	return set.Results(), qs, nil
}
