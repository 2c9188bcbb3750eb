package sfatrie

import (
	"context"
	"fmt"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/difftest"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// referenceSearch is the search this package ran before leaves were filtered
// per member, kept as the reference the new one is compared against: a
// visited leaf compares every member's raw series to the query.
func (ix *Index) referenceSearch(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	qf := ix.xform.Features(q)
	qw := ix.xform.WordInto(qf, make([]uint8, len(qf)))
	ord := series.NewOrder(q)
	set := core.NewKNNSet(k)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)

	if leaf := ix.descend(qw); leaf != nil {
		ix.referenceVisitLeaf(leaf, q, ord, set, &qs)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			pr.Finish(&qs)
			return set.Results(), qs, nil
		}
	}
	if spec.Mode == core.ModeNG {
		pr.Finish(&qs)
		return set.Results(), qs, nil
	}

	var h core.BoundHeap[*node]
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
			if !n.visited(qw) {
				ix.referenceVisitLeaf(n, q, ord, set, &qs)
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

func (ix *Index) referenceVisitLeaf(n *node, q series.Series, ord series.Order, set *core.KNNSet, qs *stats.QueryStats) {
	ix.c.Counters.ChargeRand(int64(len(n.members)) * ix.c.File.SeriesBytes()) // one leaf access
	for _, id := range n.members {
		d := series.SquaredDistEAOrderedBlocked(q, ix.c.File.Peek(id), ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(id, d)
	}
}

// TestMemberFilterNeverChangesAnswers: in every mode, on every kind of
// query, the member-filtered search returns the reference search's answers —
// same IDs, Float64bits-equal distances — after the same traversal (nodes
// visited, early-stop cause, I/O charged), having compared no more raw
// series than it.
func TestMemberFilterNeverChangesAnswers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.RandomWalk(3000, 128, seed)
		ix, c := build(t, ds, 24)
		difftest.MemberFilterChangesNothing(t, fmt.Sprintf("seed %d", seed), c, difftest.Modes, difftest.Queries(ds, seed), ix.KNNApprox, ix.referenceSearch)
	}
}

// TestRefineWorkBudget is the count-based gate on the member filter: on a
// fixed seed, exact queries compare at most a quarter of the raw series the
// reference leaf loop compares.
func TestRefineWorkBudget(t *testing.T) {
	ix, _ := build(t, dataset.RandomWalk(10000, 256, 42), 0)
	got, want := difftest.RefineWork(t, dataset.SynthRand(20, 256, 7).Queries, ix.KNNApprox, ix.referenceSearch)
	if 4*got > want {
		t.Errorf("examined %d raw series, more than a quarter of the reference's %d", got, want)
	}
}
