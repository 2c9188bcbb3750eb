package dstree

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/difftest"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/transform/eapca"
)

// referenceSearch is the search this package ran before leaves were filtered
// per member, kept as the reference the new one is compared against: a
// visited leaf compares every member's raw series to the query.
func (ix *Index) referenceSearch(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	qp := eapca.NewPrefixInto(q, sc.Summary(2*(len(q)+1)))
	ord := sc.Order(q)
	set := sc.KNN(k)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)
	cur := ix.c.File.Cursor()
	defer cur.Flush()
	rf := core.NewRefiner(&cur, q, ord, set)

	approx := ix.root
	for !approx.isLeaf {
		approx = approx.children[approx.route(qp)]
	}
	rf.Leaf(approx.members, nil, &qs)
	if pr.Visit() || pr.StopSatisfied(set.Bound()) || spec.Mode == core.ModeNG {
		pr.Finish(&qs)
		return set.Results(), qs, nil
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
			if n != approx {
				rf.Leaf(n.members, nil, &qs)
			}
			if pr.Visit() || pr.StopSatisfied(set.Bound()) {
				break
			}
			continue
		}
		l0, l1 := lbPair(qp, n.children[0], n.children[1], sc.Aux(3*len(n.children[0].ends)))
		qs.LBCalcs += 2
		if !pr.Prune(l0, set.Bound()) {
			h.Push(l0, n.children[0])
		}
		if !pr.Prune(l1, set.Bound()) {
			h.Push(l1, n.children[1])
		}
		if pr.Visit() {
			break
		}
	}
	pr.Finish(&qs)
	return set.Results(), qs, nil
}

// TestMemberFilterNeverChangesAnswers: in every mode, on every kind of
// query, the member-filtered search returns the reference search's answers —
// same IDs, Float64bits-equal distances — after the same traversal (nodes
// visited, early-stop cause, I/O charged), having compared no more raw
// series than it. The sidecar behind the filter is derived in three places,
// and each is driven: a fresh build, a build grown by appends that split
// leaves (records are id-indexed, so a split must move nothing), and a
// snapshot loaded over the grown collection.
func TestMemberFilterNeverChangesAnswers(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.RandomWalk(3000, 128, seed)
		queries := difftest.Queries(ds, seed)
		compare := func(stage string, ix *Index, c *core.Collection) {
			difftest.MemberFilterChangesNothing(t, fmt.Sprintf("seed %d %s", seed, stage), c, difftest.Modes, queries, ix.KNNApprox, ix.referenceSearch)
		}

		ix, c := build(t, &dataset.Dataset{Name: ds.Name, Series: ds.Series[:2400]}, 24)
		compare("built", ix, c)

		// Append the rest in uneven batches; duplicates of old members ride
		// along (the lb = d = 0 tie across a split).
		leaves := ix.numLeaves
		tail := append(append([]series.Series{}, ds.Series[2400:]...), ds.Series[5], ds.Series[1200])
		for lo := 0; lo < len(tail); {
			hi := min(lo+1+lo%97, len(tail))
			var flat []float32
			for _, s := range tail[lo:hi] {
				flat = append(flat, s...)
			}
			first := c.File.Append(flat)
			ids := make([]int, hi-lo)
			for i := range ids {
				ids[i] = first + i
			}
			if err := ix.Insert(ids); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if ix.numLeaves == leaves {
			t.Fatal("appends split no leaf")
		}
		queries = append(queries, ds.Series[5], ds.Series[2700])
		compare("grown", ix, c)

		var buf bytes.Buffer
		if err := core.SaveIndex(ix, c, &buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadIndex(bytes.NewReader(buf.Bytes()), c)
		if err != nil {
			t.Fatal(err)
		}
		compare("loaded", loaded.(*Index), c)
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
