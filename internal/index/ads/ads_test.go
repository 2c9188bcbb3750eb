package ads

import (
	"bytes"
	"context"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	_ "hydra/internal/index/isax" // registered for the build-cost comparison
	"hydra/internal/simd"
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

// TestCheapIndexing: ADS+ must write only summaries — its defining property
// ("the first query adaptive data series index"; indexing an order of
// magnitude cheaper than full indexes in Fig. 6a).
func TestCheapIndexing(t *testing.T) {
	ds := dataset.RandomWalk(3000, 256, 1)
	m, err := core.New("ADS+", core.Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	coll := core.NewCollection(ds)
	bs, err := core.BuildInstrumented(m, coll)
	if err != nil {
		t.Fatal(err)
	}
	// Build I/O = one read pass + summary write. Anything close to 2× the
	// data size would mean raw data was materialized.
	if bs.IO.TotalBytes() > ds.SizeBytes()+ds.SizeBytes()/4 {
		t.Errorf("ADS+ build moved %d bytes; should be ~data size %d (summaries only)",
			bs.IO.TotalBytes(), ds.SizeBytes())
	}

	// Compare with iSAX2+, which materializes leaves.
	m2, err := core.New("iSAX2+", core.Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	coll2 := core.NewCollection(ds)
	bs2, err := core.BuildInstrumented(m2, coll2)
	if err != nil {
		t.Fatal(err)
	}
	if bs2.IO.TotalBytes() <= bs.IO.TotalBytes() {
		t.Errorf("iSAX2+ build (%d B) should move more data than ADS+ (%d B)",
			bs2.IO.TotalBytes(), bs.IO.TotalBytes())
	}
}

// TestSkipSequentialSignature: SIMS reads the raw file in ascending order;
// skips show up as seeks, and with high pruning there are many of them (the
// paper's Figure 4c signature: ADS+ performs the most random accesses).
func TestSkipSequentialSignature(t *testing.T) {
	ds := dataset.RandomWalk(4000, 128, 2)
	ix, coll := build(t, ds, 64)
	q := dataset.SynthRand(1, 128, 3).Queries[0]
	_, qs, err := core.RunQuery(context.Background(), ix, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.IO.RandOps == 0 {
		t.Errorf("skip-sequential scan should produce seeks")
	}
	if qs.PruningRatio() < 0.8 {
		t.Errorf("ADS+ pruning %.3f unexpectedly low", qs.PruningRatio())
	}
}

// TestAdaptiveMaterialization: the first query pays random I/O to
// materialize its leaf; a repeat of the same query must not pay it again.
func TestAdaptiveMaterialization(t *testing.T) {
	ds := dataset.RandomWalk(2000, 128, 4)
	ix, coll := build(t, ds, 64)
	q := dataset.Ctrl(ds, 1, 0.3, 5).Queries[0]

	_, qs1, err := core.RunQuery(context.Background(), ix, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, qs2, err := core.RunQuery(context.Background(), ix, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs2.IO.RandOps >= qs1.IO.RandOps {
		t.Errorf("repeat query paid as much random I/O (%d) as the first (%d); leaf not cached",
			qs2.IO.RandOps, qs1.IO.RandOps)
	}
}

func TestSummaryArrayComplete(t *testing.T) {
	ds := dataset.RandomWalk(500, 64, 6)
	ix, _ := build(t, ds, 32)
	tree := ix.Tree()
	if tree.NumSeries() != ds.Len() ||
		len(tree.Words) != ds.Len()*tree.Segments || len(tree.PAAs) != ds.Len()*tree.Segments {
		t.Fatalf("summary array incomplete: %d words, %d PAAs", len(tree.Words), len(tree.PAAs))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invariants: %v", err)
	}
}

// TestInsertReusesTransposedSummary: appended batches re-transpose into the
// existing wordsT backing (growing it by doubling, not once per batch), the
// result is the transpose a fresh build would hold, and the reported memory
// footprint counts the summaries in use, not the spare capacity.
func TestInsertReusesTransposedSummary(t *testing.T) {
	all := dataset.RandomWalk(464, 64, 7)
	ix, coll := build(t, dataset.FromFlat("head", all.Flat()[:400*64], 400, 64), 32)
	grows := 0
	for i := 400; i < all.Len(); i++ {
		before := cap(ix.wordsT)
		id := coll.File.Append(all.Series[i])
		if err := ix.Insert([]int{id}); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
		if cap(ix.wordsT) != before {
			grows++
		}
	}
	if grows != 1 {
		t.Errorf("wordsT backing reallocated %d times over 64 one-series batches, want 1 (doubling)", grows)
	}
	tree := ix.Tree()
	want := make([]uint8, len(tree.Words))
	simd.Transpose8(tree.Words, tree.Segments, want)
	if !bytes.Equal(ix.wordsT, want) {
		t.Fatal("wordsT after Insert is not the transpose of the summary array")
	}
	fresh, _ := build(t, all, 32)
	if got, want := ix.TreeStats().MemBytes, fresh.TreeStats().MemBytes; got != want {
		t.Errorf("MemBytes after appends = %d, fresh build over the same series = %d (cap(wordsT) = %d)", got, want, cap(ix.wordsT))
	}
}
