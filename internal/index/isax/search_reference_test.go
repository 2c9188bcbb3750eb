package isax

import (
	"context"
	"fmt"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/difftest"
	"hydra/internal/index/isaxtree"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// referenceSearch is the search this package ran before leaves were filtered
// per member, kept as the reference the new one is compared against: every
// root child is pushed whatever the ng step's bound, and a visited leaf
// compares every member's raw series to the query.
func (ix *Index) referenceSearch(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	qpaa := ix.tree.PAA.Apply(q)
	qword := make([]uint8, len(qpaa))
	for i, v := range qpaa {
		qword[i] = ix.tree.Quant.Symbol(v)
	}
	ord := series.NewOrder(q)
	set := core.NewKNNSet(k)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)

	approx := ix.tree.ApproxLeaf(qword)
	if approx != nil {
		ix.referenceVisitLeaf(approx, q, ord, set, &qs)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			pr.Finish(&qs)
			return set.Results(), qs, nil
		}
	}
	if spec.Mode == core.ModeNG {
		pr.Finish(&qs)
		return set.Results(), qs, nil
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
		if pr.Prune(lb, set.Bound()) {
			break
		}
		if n.IsLeaf {
			if n != approx {
				ix.referenceVisitLeaf(n, q, ord, set, &qs)
			}
			if pr.Visit() || pr.StopSatisfied(set.Bound()) {
				break
			}
			continue
		}
		for _, child := range n.Children {
			lb := ix.tree.MinDist(qpaa, child)
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

func (ix *Index) referenceVisitLeaf(n *isaxtree.Node, q series.Series, ord series.Order, set *core.KNNSet, qs *stats.QueryStats) {
	ix.c.Counters.ChargeRand(int64(len(n.Members)) * ix.c.File.SeriesBytes()) // one leaf access
	for _, id := range n.Members {
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
//
// The constant query (last of the mix) puts the query's PAA on every root
// region's edge: all root bounds tie at 0, so the order the root children
// are scored in decides the order they pop in and, under a budget or a
// δ-ε stop, the answer. Both searches walk the tree's sorted root list, so
// that order is a function of the tree and the query is compared in all
// four modes like any other.
func TestMemberFilterNeverChangesAnswers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.RandomWalk(3000, 128, seed)
		ix, c := build(t, ds, 24)
		difftest.MemberFilterChangesNothing(t, fmt.Sprintf("seed %d", seed), c, difftest.Modes, difftest.Queries(ds, seed), ix.KNNApprox, ix.referenceSearch)
	}
}

// TestTiedRootBoundsPopInKeyOrder: two trees over the same data — one built
// in one pass, one built over a prefix and grown by inserts — list the same
// root children in the same (key) order, so a budget-stopped answer on the
// constant query, where every root bound ties at 0, is the same from both.
func TestTiedRootBoundsPopInKeyOrder(t *testing.T) {
	ds := dataset.RandomWalk(3000, 128, 4)
	whole, _ := build(t, ds, 24)
	grown, c := build(t, &dataset.Dataset{Name: ds.Name, Series: ds.Series[:1000]}, 24)
	var flat []float32
	for _, s := range ds.Series[1000:] {
		flat = append(flat, s...)
	}
	first := c.File.Append(flat)
	ids := make([]int, 2000)
	for i := range ids {
		ids[i] = first + i
	}
	if err := grown.Insert(ids); err != nil {
		t.Fatal(err)
	}
	for _, tree := range []*isaxtree.Tree{whole.tree, grown.tree} {
		roots := tree.Roots()
		if len(roots) != len(tree.Root) {
			t.Fatalf("%d root children listed, %d in the map", len(roots), len(tree.Root))
		}
		for i := 1; i < len(roots); i++ {
			if prev, key := tree.RootKey(roots[i-1].Word.Symbols), tree.RootKey(roots[i].Word.Symbols); prev >= key {
				t.Fatalf("root child %d has key %d after %d", i, key, prev)
			}
		}
	}
	q := make(series.Series, 128)
	spec := difftest.Modes["budget"]
	want, _, err := whole.KNNApprox(context.Background(), q, 5, spec)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := grown.KNNApprox(context.Background(), q, 5, spec)
	if err != nil {
		t.Fatal(err)
	}
	difftest.SameAnswers(t, "constant query, budget", got, want)
}

// TestRefineWorkBudget is the count-based gate on the member filter: on a
// fixed seed, exact queries compare at most a quarter of the raw series the
// reference leaf loop compares (1/24 when recorded).
func TestRefineWorkBudget(t *testing.T) {
	ix, _ := build(t, dataset.RandomWalk(10000, 256, 42), 0)
	got, want := difftest.RefineWork(t, dataset.SynthRand(20, 256, 7).Queries, ix.KNNApprox, ix.referenceSearch)
	if 4*got > want {
		t.Errorf("examined %d raw series, more than a quarter of the reference's %d", got, want)
	}
}
