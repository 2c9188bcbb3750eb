package ads

import (
	"bytes"
	"context"
	"math"
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
	tree := ix.tree
	if tree.NumSeries() != ds.Len() ||
		len(tree.Words) != ds.Len()*tree.Segments || len(tree.PAAs) != ds.Len()*tree.Segments {
		t.Fatalf("summary array incomplete: %d words, %d PAAs", len(tree.Words), len(tree.PAAs))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("tree invariants: %v", err)
	}
}

// TestInsertReusesTransposedSummary: an appended batch re-transposes only the
// tail appended since the last fold, a fold re-transposes into the existing
// wordsT backing (growing it by doubling, not once per fold), dense part and
// tail are together the transpose a fresh build would hold, and the reported
// memory footprint counts the summaries in use, not the spare capacity.
func TestInsertReusesTransposedSummary(t *testing.T) {
	all := dataset.RandomWalk(464, 64, 7)
	ix, coll := build(t, dataset.FromFlat("head", all.Flat()[:400*64], 400, 64), 32)
	seg := ix.tree.Segments
	grows, folds := 0, 0
	for i := 400; i < all.Len(); i++ {
		before, dense := cap(ix.wordsT), len(ix.wordsT)
		id := coll.File.Append(all.Series[i])
		if err := ix.Insert([]int{id}); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
		if cap(ix.wordsT) != before {
			grows++
		}
		if len(ix.wordsT) != dense {
			folds++
			if len(ix.tailT) != 0 || len(ix.wordsT) != (i+1)*seg {
				t.Fatalf("fold at %d series left %d dense and %d tail bytes", i+1, len(ix.wordsT), len(ix.tailT))
			}
		} else if tail := (i+1)*seg - dense; len(ix.tailT) != tail || tail*tailFoldDiv > dense {
			t.Fatalf("at %d series: %d tail bytes beside %d dense (have %d in tailT)", i+1, tail, dense, len(ix.tailT))
		}
	}
	if grows != 1 {
		t.Errorf("wordsT backing reallocated %d times over 64 one-series batches, want 1 (doubling)", grows)
	}
	// 400 series hold a tail of 12; the 13th folds, and so on from 413.
	if folds != 4 {
		t.Errorf("%d folds over 64 one-series batches onto 400, want 4", folds)
	}
	tree := ix.tree
	dense := len(ix.wordsT)
	want := make([]uint8, dense)
	simd.Transpose8(tree.Words[:dense], seg, want)
	wantTail := make([]uint8, len(tree.Words)-dense)
	simd.Transpose8(tree.Words[dense:], seg, wantTail)
	if !bytes.Equal(ix.wordsT, want) || !bytes.Equal(ix.tailT, wantTail) || len(wantTail) == 0 {
		t.Fatal("wordsT and tailT after Insert are not the transposes of the summary array's two parts")
	}
	fresh, _ := build(t, all, 32)
	if got, want := ix.TreeStats().MemBytes, fresh.TreeStats().MemBytes; got != want {
		t.Errorf("MemBytes after appends = %d, fresh build over the same series = %d (cap(wordsT) = %d)", got, want, cap(ix.wordsT))
	}
}

// TestTailAnswersMatchFreshBuild pins the two-part lower-bound pass: with
// the appended tail at every size around the kernel's group of eight and
// around the fold, an index answers bit-identically — ids, distances and
// work counters — to one built fresh over the same series.
func TestTailAnswersMatchFreshBuild(t *testing.T) {
	const base, length = 400, 64
	fold := base/tailFoldDiv + 1 // the smallest tail that folds
	all := dataset.RandomWalk(base+fold+1, length, 11)
	queries := dataset.SynthRand(6, length, 12).Queries
	for _, tail := range []int{0, 1, 7, 8, 9, fold - 1, fold, fold + 1} {
		n := base + tail
		ix, coll := build(t, dataset.FromFlat("head", all.Flat()[:base*length], base, length), 32)
		if tail > 0 {
			first := coll.File.Append(all.Flat()[base*length : n*length])
			ids := make([]int, tail)
			for i := range ids {
				ids[i] = first + i
			}
			if err := ix.Insert(ids); err != nil {
				t.Fatalf("tail %d: Insert: %v", tail, err)
			}
		}
		wantTail := tail
		if tail >= fold {
			wantTail = 0
		}
		if got := len(ix.tailT) / ix.tree.Segments; got != wantTail {
			t.Fatalf("tail %d: %d series in tailT, want %d", tail, got, wantTail)
		}
		fresh, freshColl := build(t, dataset.FromFlat("all", all.Flat()[:n*length], n, length), 32)
		for qi, q := range queries {
			got, gs, err := core.RunQuery(context.Background(), ix, coll, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, ws, err := core.RunQuery(context.Background(), fresh, freshColl, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("tail %d q%d: %d matches, fresh build %d", tail, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
					t.Fatalf("tail %d q%d match %d: got %+v, fresh build %+v", tail, qi, i, got[i], want[i])
				}
			}
			if gs.LBCalcs != ws.LBCalcs || gs.DistCalcs != ws.DistCalcs || gs.RawSeriesExamined != ws.RawSeriesExamined {
				t.Fatalf("tail %d q%d: counters %+v, fresh build %+v", tail, qi, gs, ws)
			}
		}
	}
}
