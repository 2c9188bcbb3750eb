package dstree

import (
	"context"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
)

// TestHorizontalOnlyStillExact: disabling vertical splits degrades pruning,
// never correctness.
func TestHorizontalOnlyStillExact(t *testing.T) {
	ds := dataset.RandomWalk(600, 64, 41)
	ix := NewHorizontalOnly(core.Options{LeafSize: 32})
	coll := core.NewCollection(ds)
	if err := ix.Build(coll); err != nil {
		t.Fatal(err)
	}
	for _, q := range dataset.SynthRand(4, 64, 42).Queries {
		want := core.BruteForceKNN(coll, q, 2)
		got, _, err := ix.KNN(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Dist != want[i].Dist && got[i].ID != want[i].ID {
				t.Fatalf("match %d: (%d,%g) want (%d,%g)", i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
	}
}

// TestVerticalSplitsDrivePruning is the ablation's expected direction: on
// Z-normalized data, horizontal-only splitting cannot discriminate (every
// series has whole-series mean 0, std 1), so the full policy must prune
// substantially better. What a split policy controls is which leaves a query
// reads, so the measure is the share of the collection in the leaves charged
// to the queries (the I/O bytes; a leaf is charged whole) — not the raw
// series examined, which the per-member filter cuts inside whatever leaf is
// read, under either policy.
func TestVerticalSplitsDrivePruning(t *testing.T) {
	ds := dataset.RandomWalk(3000, 128, 43)
	wl := dataset.SynthRand(5, 128, 44)
	leafPruning := func(ix *Index) float64 {
		coll := core.NewCollection(ds)
		if err := ix.Build(coll); err != nil {
			t.Fatal(err)
		}
		ws, err := core.RunWorkload(context.Background(), ix, coll, wl, 1)
		if err != nil {
			t.Fatal(err)
		}
		read := float64(ws.Total().IO.TotalBytes()) / float64(coll.File.SeriesBytes())
		return 1 - read/float64(len(wl.Queries)*ds.Len())
	}
	full := leafPruning(New(core.Options{LeafSize: 64}))
	hOnly := leafPruning(NewHorizontalOnly(core.Options{LeafSize: 64}))
	t.Logf("leaf pruning: h+v %.3f, h-only %.3f", full, hOnly)
	if full < hOnly+0.2 {
		t.Errorf("h+v leaf pruning %.3f should beat h-only %.3f by a wide margin", full, hOnly)
	}
}
