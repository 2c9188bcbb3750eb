package isax

import (
	"context"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
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

func TestTreeInvariantsAfterBuild(t *testing.T) {
	ds := dataset.RandomWalk(2500, 128, 1)
	ix, _ := build(t, ds, 50)
	if err := ix.tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestApproximateThenExact: the ng-approximate step must give a finite
// best-so-far that the exact step can only improve (never worsen).
func TestApproximateThenExact(t *testing.T) {
	ds := dataset.RandomWalk(1500, 128, 2)
	ix, coll := build(t, ds, 32)
	for _, q := range dataset.Ctrl(ds, 5, 0.8, 3).Queries {
		want := core.BruteForceKNN(coll, q, 1)
		got, qs, err := ix.KNN(context.Background(), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got[0].Dist-want[0].Dist) > 1e-9*(1+want[0].Dist) {
			t.Fatalf("dist %g want %g", got[0].Dist, want[0].Dist)
		}
		if qs.LBCalcs == 0 {
			t.Errorf("exact step computed no lower bounds")
		}
	}
}

// TestLeafVisitsBounded: with decent pruning, the index must not read the
// whole collection through leaves.
func TestLeafVisitsBounded(t *testing.T) {
	ds := dataset.RandomWalk(4000, 256, 3)
	ix, coll := build(t, ds, 64)
	q := dataset.SynthRand(1, 256, 4).Queries[0]
	_, qs, err := core.RunQuery(context.Background(), ix, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.RawSeriesExamined >= int64(ds.Len()) {
		t.Errorf("examined everything (%d); pruning broken", qs.RawSeriesExamined)
	}
}

// TestSkewedFills: the paper observes that SAX-based indexes distribute data
// unevenly (fixed split points): expect substantial variance in fill factors
// compared to DSTree.
func TestFillFactorsReported(t *testing.T) {
	ds := dataset.RandomWalk(3000, 128, 5)
	ix, _ := build(t, ds, 50)
	ts := ix.TreeStats()
	if len(ts.FillFactors) == 0 {
		t.Fatalf("no fill factors reported")
	}
	for _, f := range ts.FillFactors {
		if f < 0 || f > 1.01 {
			t.Errorf("fill factor %f out of range", f)
		}
	}
	if ts.MaxDepth() <= 0 {
		t.Errorf("depth not tracked")
	}
}

func TestHardQueriesStillExact(t *testing.T) {
	// Deep1B-like data: poor pruning, exactness must hold regardless.
	ds := dataset.Deep1B(800, 96, 6)
	ix, coll := build(t, ds, 32)
	for _, q := range dataset.DeepOrig(5, 96, 7).Queries {
		want := core.BruteForceKNN(coll, q, 3)
		got, _, err := ix.KNN(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9*(1+want[i].Dist) {
				t.Fatalf("match %d: %g want %g", i, got[i].Dist, want[i].Dist)
			}
		}
	}
}
