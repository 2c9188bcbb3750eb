package mtree

import (
	"context"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
)

func build(t *testing.T, ds *dataset.Dataset, leaf int) (*Index, *core.Collection) {
	t.Helper()
	ix := New(core.Options{LeafSize: leaf})
	coll := core.NewCollection(ds)
	if err := ix.Build(coll); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, coll
}

// TestCoveringRadiiInvariant: every routing entry's radius must cover all
// objects in its subtree — the invariant triangle-inequality pruning needs.
func TestCoveringRadiiInvariant(t *testing.T) {
	ds := dataset.RandomWalk(800, 64, 1)
	ix, _ := build(t, ds, 8)
	var collect func(n *node) []int
	collect = func(n *node) []int {
		var ids []int
		for _, e := range n.entries {
			if e.child == nil {
				ids = append(ids, e.id)
			} else {
				ids = append(ids, collect(e.child)...)
			}
		}
		return ids
	}
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if e.child == nil {
				continue
			}
			for _, id := range collect(e.child) {
				d := series.Dist(ds.Series[e.id], ds.Series[id])
				if d > e.radius+1e-9 {
					t.Fatalf("object %d at distance %g escapes routing %d radius %g",
						id, d, e.id, e.radius)
				}
			}
			walk(e.child)
		}
	}
	walk(ix.root)
}

// TestDistToParentExact: stored parent distances must be exact (the pruning
// estimate |d(q,p) − d(p,o)| is only valid then).
func TestDistToParentExact(t *testing.T) {
	ds := dataset.RandomWalk(600, 64, 2)
	ix, _ := build(t, ds, 8)
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if n.routingObj >= 0 {
				want := series.Dist(ds.Series[e.id], ds.Series[n.routingObj])
				if math.Abs(e.distToParent-want) > 1e-9 {
					t.Fatalf("distToParent %g want %g", e.distToParent, want)
				}
			}
			if e.child != nil {
				walk(e.child)
			}
		}
	}
	walk(ix.root)
}

func TestAllObjectsPresent(t *testing.T) {
	ds := dataset.RandomWalk(500, 32, 3)
	ix, _ := build(t, ds, 4)
	seen := make([]bool, ds.Len())
	var walk func(n *node)
	walk = func(n *node) {
		for _, e := range n.entries {
			if e.child == nil {
				if seen[e.id] {
					t.Fatalf("object %d stored twice", e.id)
				}
				seen[e.id] = true
			} else {
				walk(e.child)
			}
		}
	}
	walk(ix.root)
	for id, ok := range seen {
		if !ok {
			t.Fatalf("object %d missing", id)
		}
	}
}

func TestExactnessOnClusteredData(t *testing.T) {
	ds := dataset.Astro(700, 64, 4)
	ix, coll := build(t, ds, 8)
	for _, q := range dataset.Ctrl(ds, 5, 0.8, 5).Queries {
		want := core.BruteForceKNN(coll, q, 4)
		got, _, err := ix.KNN(context.Background(), q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-6 {
				t.Fatalf("match %d: dist %g want %g", i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestPruningSkipsDistances(t *testing.T) {
	// The parent-distance shortcut must save distance computations compared
	// to examining everything (this is the M-tree's whole point).
	ds := dataset.SALD(2000, 64, 5) // clustered data prunes well
	ix, _ := build(t, ds, 16)
	q := dataset.Ctrl(ds, 1, 0.1, 6).Queries[0]
	_, qs, err := ix.KNN(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.DistCalcs >= int64(ds.Len()) {
		t.Errorf("no distance computations saved: %d for %d objects", qs.DistCalcs, ds.Len())
	}
}

// TestQueryCountersFilled: the traversal reports its work through the same
// QueryStats fields the other trees fill — a node per pop, a lower-bound
// calculation per parent-distance estimate and routing bound.
func TestQueryCountersFilled(t *testing.T) {
	ds := dataset.SALD(2000, 64, 5)
	ix, _ := build(t, ds, 16)
	nodes := int64(ix.TreeStats().TotalNodes)
	for _, q := range dataset.Ctrl(ds, 5, 0.5, 6).Queries {
		_, qs, err := ix.KNN(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if qs.NodesVisited < 2 || qs.NodesVisited > nodes {
			t.Errorf("%d nodes visited, tree has %d", qs.NodesVisited, nodes)
		}
		// Every distance but the root entries' follows an estimate that let
		// it through.
		if qs.LBCalcs < qs.DistCalcs-int64(ix.cap) || qs.LBCalcs > 2*int64(ds.Len()) {
			t.Errorf("%d lower-bound calculations beside %d distances", qs.LBCalcs, qs.DistCalcs)
		}
		if qs.RawSeriesExamined == 0 || qs.RawSeriesExamined > qs.DistCalcs {
			t.Errorf("%d raw series examined, %d distances", qs.RawSeriesExamined, qs.DistCalcs)
		}
	}
}

func TestMinimumCapacity(t *testing.T) {
	// Paper's tuned M-tree leaf size was 1; the index must clamp to a
	// splittable capacity and still work.
	ds := dataset.RandomWalk(120, 32, 6)
	ix, coll := build(t, ds, 1)
	if ix.cap != 2 {
		t.Errorf("capacity %d want 2", ix.cap)
	}
	q := dataset.SynthRand(1, 32, 7).Queries[0]
	want := core.BruteForceKNN(coll, q, 1)
	got, _, err := ix.KNN(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Dist != want[0].Dist {
		t.Errorf("dist %g want %g", got[0].Dist, want[0].Dist)
	}
}

func TestBuildDistCalcsTracked(t *testing.T) {
	ds := dataset.RandomWalk(300, 32, 7)
	ix, _ := build(t, ds, 4)
	if ix.BuildDistCalcs() == 0 {
		t.Errorf("construction distance computations not tracked")
	}
	// A split computes one samples × entries matrix, not 2 × entries
	// distances per candidate pair (162 distances per series on this
	// collection); the descent adds one per routing entry passed.
	if perSeries := float64(ix.BuildDistCalcs()) / float64(ds.Len()); perSeries > 60 {
		t.Errorf("%.1f construction distances per series, ceiling 60 (48 when recorded)", perSeries)
	}
	ts := ix.TreeStats()
	if ts.LeafNodes == 0 || len(ts.FillFactors) != ts.LeafNodes {
		t.Errorf("TreeStats inconsistent: %+v", ts)
	}
}

// TestPromotionSampleCounts pins the sampling rule every built tree depends
// on: maxPromotionSamples is a target, and the integer stride yields up to
// 2·maxPromotionSamples−1 candidates — exactly the entries the historical
// loop "for i := 0; i < len; i += step" visits.
func TestPromotionSampleCounts(t *testing.T) {
	for _, tc := range []struct{ entries, step, samples int }{
		{2, 1, 2}, {12, 1, 12}, {13, 1, 13}, {17, 1, 17}, {23, 1, 23},
		{24, 2, 12}, {25, 2, 13}, {48, 4, 12},
	} {
		step, samples := promotionStep(tc.entries)
		if step != tc.step || samples != tc.samples {
			t.Errorf("%d entries: step %d samples %d, want %d and %d", tc.entries, step, samples, tc.step, tc.samples)
		}
		visited := 0
		for i := 0; i < tc.entries; i += step {
			visited++
		}
		if visited != samples {
			t.Errorf("%d entries: the stride visits %d candidates, promotionStep says %d", tc.entries, visited, samples)
		}
		if samples > 2*maxPromotionSamples-1 {
			t.Errorf("%d entries: %d candidates exceed 2·maxPromotionSamples−1", tc.entries, samples)
		}
	}
}
