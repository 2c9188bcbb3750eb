package mtree

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/difftest"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// referenceSearch is the KNN this package ran before data entries were
// tested against a per-member summary, kept as the reference the new one is
// compared against: every data entry the parent-distance estimate lets
// through has its raw series compared, and the result set's bound is read
// and rooted anew for every entry.
func (ix *Index) referenceSearch(ctx context.Context, q series.Series, k int, _ core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	ord := sc.Order(q)
	set := sc.KNN(k)
	cur := ix.c.File.Cursor()
	rf := core.NewRefiner(&cur, q, ord, set)

	h := core.HeapOf[visit](sc)
	h.Push(0, visit{n: ix.root})
	for h.Len() > 0 {
		if err := core.Canceled(ctx); err != nil {
			return nil, qs, err
		}
		lb, it := h.PopMin()
		bound := math.Sqrt(set.Bound())
		if lb >= bound {
			break
		}
		qs.NodesVisited++
		for _, e := range it.n.entries {
			bound = math.Sqrt(set.Bound())
			if it.haveQP {
				qs.LBCalcs++
				est := math.Abs(it.distQP - e.distToParent)
				if e.child != nil {
					est -= e.radius
				}
				if est >= bound {
					continue
				}
			}
			if e.child == nil {
				rf.Member(e.id, &qs)
				continue
			}
			qs.DistCalcs++
			d := series.Dist(q, ix.c.File.Peek(e.id))
			qs.LBCalcs++
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

// knn adapts KNN to the differential tests' search signature (the M-tree
// answers only exact queries).
func (ix *Index) knn(ctx context.Context, q series.Series, k int, _ core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	return ix.KNN(ctx, q, k)
}

// TestMemberFilterNeverChangesAnswers: on every kind of query the filtered
// KNN returns the reference KNN's answers — same IDs, Float64bits-equal
// distances — after the same traversal (nodes visited, I/O charged), having
// compared no more raw series than it; from a fresh build and from a
// snapshot, whose sidecar is derived again on load.
func TestMemberFilterNeverChangesAnswers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.RandomWalk(3000, 128, seed)
		// Duplicates: the lb = d = 0 tie.
		copy(ds.Series[2999], ds.Series[int(seed)*37])
		queries := difftest.Queries(ds, seed)
		ix, c := build(t, ds, 24)
		difftest.MemberFilterChangesNothing(t, fmt.Sprintf("seed %d built", seed), c, difftest.Exact, queries, ix.knn, ix.referenceSearch)

		var buf bytes.Buffer
		if err := core.SaveIndex(ix, c, &buf); err != nil {
			t.Fatal(err)
		}
		m, err := core.LoadIndex(bytes.NewReader(buf.Bytes()), c)
		if err != nil {
			t.Fatal(err)
		}
		loaded := m.(*Index)
		difftest.MemberFilterChangesNothing(t, fmt.Sprintf("seed %d loaded", seed), c, difftest.Exact, queries, loaded.knn, loaded.referenceSearch)
	}
}

// TestRefineWorkBudget is the count-based gate on the member filter: on a
// fixed seed, queries compare at most a quarter of the raw series the
// reference compares.
func TestRefineWorkBudget(t *testing.T) {
	ix, _ := build(t, dataset.RandomWalk(10000, 256, 42), 0)
	got, want := difftest.RefineWork(t, dataset.SynthRand(20, 256, 7).Queries, ix.knn, ix.referenceSearch)
	if 4*got > want {
		t.Errorf("examined %d raw series, more than a quarter of the reference's %d", got, want)
	}
}
