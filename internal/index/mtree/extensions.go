package mtree

import (
	"context"
	"fmt"
	"math"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// EpsKNN implements core.EpsApproxMethod: Ciaccia & Patella's ε-approximate
// nearest-neighbor queries on the M-tree (Definition 5 of the paper — the
// returned distances are at most (1+ε) times the true ones). Subtrees are
// pruned whenever their lower bound exceeds bound/(1+ε), which preserves the
// relative-error guarantee while visiting (often far) fewer nodes.
func (ix *Index) EpsKNN(ctx context.Context, q series.Series, k int, eps float64) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("mtree: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("mtree: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	if eps < 0 {
		return nil, qs, fmt.Errorf("mtree: negative epsilon %f", eps)
	}
	shrink := 1 / (1 + eps)
	set := core.NewKNNSet(k)
	distQ := func(id int) float64 {
		qs.DistCalcs++
		return series.Dist(q, ix.c.File.Peek(id))
	}

	var h core.BoundHeap[visit]
	h.Push(0, visit{n: ix.root})
	for h.Len() > 0 {
		if err := core.Canceled(ctx); err != nil {
			return nil, qs, err
		}
		lb, it := h.PopMin()
		bound := math.Sqrt(set.Bound()) * shrink
		if lb >= bound {
			break
		}
		for _, e := range it.n.entries {
			bound = math.Sqrt(set.Bound()) * shrink
			if it.haveQP {
				est := math.Abs(it.distQP - e.distToParent)
				if e.child != nil {
					est -= e.radius
				}
				if est >= bound {
					continue
				}
			}
			d := distQ(e.id)
			if e.child == nil {
				qs.RawSeriesExamined++
				set.Add(e.id, d*d)
				continue
			}
			lb := d - e.radius
			if lb < 0 {
				lb = 0
			}
			if lb < bound {
				h.Push(lb, visit{n: e.child, distQP: d, haveQP: true})
			}
		}
	}
	return set.Results(), qs, nil
}

// RangeSearch implements core.RangeMethod on the metric tree: subtrees whose
// routing sphere lies entirely beyond r are pruned by the triangle
// inequality.
func (ix *Index) RangeSearch(ctx context.Context, q series.Series, r float64) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("mtree: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("mtree: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	set := core.NewRangeSet(r)
	distQ := func(id int) float64 {
		qs.DistCalcs++
		return series.Dist(q, ix.c.File.Peek(id))
	}
	var ctxErr error
	var walk func(n *node, distQP float64, haveQP bool)
	walk = func(n *node, distQP float64, haveQP bool) {
		if ctxErr != nil {
			return
		}
		if ctxErr = core.Canceled(ctx); ctxErr != nil {
			return
		}
		for _, e := range n.entries {
			if haveQP {
				est := math.Abs(distQP - e.distToParent)
				if e.child != nil {
					est -= e.radius
				}
				if est > r {
					continue
				}
			}
			d := distQ(e.id)
			if e.child == nil {
				qs.RawSeriesExamined++
				set.Add(e.id, d*d)
				continue
			}
			if d-e.radius <= r {
				walk(e.child, d, true)
			}
		}
	}
	walk(ix.root, 0, false)
	if ctxErr != nil {
		return nil, qs, ctxErr
	}
	return set.Results(), qs, nil
}
