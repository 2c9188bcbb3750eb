package vafile

import (
	"context"
	"math"
	"sort"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/stats"
)

func build(t *testing.T, ds *dataset.Dataset, opts core.Options) (*Index, *core.Collection) {
	t.Helper()
	ix := New(opts)
	coll := core.NewCollection(ds)
	if err := ix.Build(coll); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return ix, coll
}

func TestApproxFileMuchSmallerThanData(t *testing.T) {
	ds := dataset.RandomWalk(2000, 256, 1)
	ix, _ := build(t, ds, core.Options{})
	if ix.ApproxFileBytes() >= ds.SizeBytes()/4 {
		t.Errorf("approximation file %d B not much smaller than data %d B",
			ix.ApproxFileBytes(), ds.SizeBytes())
	}
}

// TestAccessPattern verifies the paper's Figure 4 signature for the VA+file:
// virtually no sequential raw-data I/O, few random accesses.
func TestAccessPattern(t *testing.T) {
	ds := dataset.RandomWalk(5000, 256, 2)
	ix, coll := build(t, ds, core.Options{})
	q := dataset.SynthRand(1, 256, 3).Queries[0]
	_, qs, err := core.RunQuery(context.Background(), ix, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential bytes should be ~ the approximation file, far below the raw
	// data size.
	if qs.IO.SeqBytes > ds.SizeBytes()/4 {
		t.Errorf("query moved %d sequential bytes; VA+file should only scan the filter file (%d B)",
			qs.IO.SeqBytes, ix.ApproxFileBytes())
	}
	// Random accesses = candidates actually visited; with ~0.99 pruning this
	// must be a tiny fraction of the collection.
	if qs.IO.RandOps > int64(ds.Len()/10) {
		t.Errorf("too many random accesses: %d", qs.IO.RandOps)
	}
	if qs.PruningRatio() < 0.9 {
		t.Errorf("pruning ratio %.3f unexpectedly low on random walks", qs.PruningRatio())
	}
}

// TestVisitsInAscendingLBOrderStopEarly: the candidates examined must be
// exactly those whose lower bound beats the final answer (the classical
// VA-file exactness argument).
func TestVisitsStopAtBound(t *testing.T) {
	ds := dataset.RandomWalk(1000, 128, 4)
	ix, coll := build(t, ds, core.Options{})
	q := dataset.SynthRand(1, 128, 5).Queries[0]
	matches, qs, err := ix.KNN(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	best := matches[0].Dist * matches[0].Dist
	qf := ix.xform.Apply(q)
	mustVisit := 0
	for i := 0; i < ix.numCodes(); i++ {
		if ix.quant.LowerBound(qf, ix.code(i)) < best {
			mustVisit++
		}
	}
	if qs.RawSeriesExamined < int64(mustVisit) {
		t.Errorf("examined %d < series whose LB beats the answer %d (unsound)",
			qs.RawSeriesExamined, mustVisit)
	}
	_ = coll
}

// sortedSearch is search in its eager formulation — per-code lower bounds,
// all candidate ids fully sorted by (bound, id), then the same phase-2 loop —
// the reference the lazy visit order is held to.
func sortedSearch(ix *Index, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats) {
	var qs stats.QueryStats
	qf := ix.xform.Apply(q)
	n := ix.numCodes()
	lbs := make([]float64, n)
	order := make([]int, n)
	for i := range lbs {
		lbs[i] = ix.quant.LowerBound(qf, ix.code(i))
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lbs[order[a]] != lbs[order[b]] {
			return lbs[order[a]] < lbs[order[b]]
		}
		return order[a] < order[b]
	})
	if spec.Mode == core.ModeNG && k < n {
		order = order[:k]
	}
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)
	ord := series.NewOrder(q)
	set := core.NewKNNSet(k)
	for _, id := range order {
		if pr.Prune(lbs[id], set.Bound()) {
			break
		}
		set.Add(id, series.SquaredDistEAOrderedBlocked(q, ix.c.File.Peek(id), ord, set.Bound()))
		qs.RawSeriesExamined++
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			break
		}
	}
	pr.Finish(&qs)
	return set.Results(), qs
}

// TestLazyOrderMatchesSortedFormulation: drawing the visit order from a
// min-queue must change nothing a caller can observe — the same series
// verified (RawSeriesExamined, NodesVisited) and bit-identical answers in
// every query mode, against the formulation that sorts all candidates.
func TestLazyOrderMatchesSortedFormulation(t *testing.T) {
	ds := dataset.RandomWalk(3000, 128, 8)
	ix, _ := build(t, ds, core.Options{})
	specs := map[string]core.ApproxSpec{
		"exact":     {},
		"ng":        {Mode: core.ModeNG},
		"delta-eps": {Mode: core.ModeDeltaEps, Epsilon: 0.5, Delta: 0.9, Seed: 3},
		"budget":    {Mode: core.ModeBudget, NodeBudget: 25},
	}
	for name, spec := range specs {
		for qi, q := range dataset.SynthRand(6, 128, 9).Queries {
			for _, k := range []int{1, 7} {
				got, gotQS, err := ix.KNNApprox(context.Background(), q, k, spec)
				if err != nil {
					t.Fatalf("%s query %d k=%d: %v", name, qi, k, err)
				}
				want, wantQS := sortedSearch(ix, q, k, spec)
				if gotQS.RawSeriesExamined != wantQS.RawSeriesExamined || gotQS.NodesVisited != wantQS.NodesVisited {
					t.Errorf("%s query %d k=%d: examined %d, nodes %d; sorted formulation %d, %d", name, qi, k,
						gotQS.RawSeriesExamined, gotQS.NodesVisited, wantQS.RawSeriesExamined, wantQS.NodesVisited)
				}
				if len(got) != len(want) {
					t.Fatalf("%s query %d k=%d: %d matches, sorted formulation %d", name, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Errorf("%s query %d k=%d match %d: %+v, sorted formulation %+v", name, qi, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestSampledTrainingStaysExact(t *testing.T) {
	ds := dataset.Seismic(1500, 128, 6)
	ix, coll := build(t, ds, core.Options{SampleSize: 100})
	for _, q := range dataset.Ctrl(ds, 4, 1.0, 7).Queries {
		want := core.BruteForceKNN(coll, q, 2)
		got, _, err := ix.KNN(context.Background(), q, 2)
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

func TestBitBudgetOption(t *testing.T) {
	ds := dataset.RandomWalk(800, 128, 7)
	ixSmall, _ := build(t, ds, core.Options{VAQBitsPerDim: 2})
	ixBig, collBig := build(t, ds, core.Options{VAQBitsPerDim: 8})
	if ixSmall.ApproxFileBytes() >= ixBig.ApproxFileBytes() {
		t.Errorf("smaller budget should shrink the filter file: %d vs %d",
			ixSmall.ApproxFileBytes(), ixBig.ApproxFileBytes())
	}
	// Bigger budget → tighter bounds → fewer raw visits.
	q := dataset.SynthRand(1, 128, 8).Queries[0]
	_, qsSmall, _ := ixSmall.KNN(context.Background(), q, 1)
	_, qsBig, _ := ixBig.KNN(context.Background(), q, 1)
	if qsBig.RawSeriesExamined > qsSmall.RawSeriesExamined {
		t.Errorf("8-bit quantizer examined more (%d) than 2-bit (%d)",
			qsBig.RawSeriesExamined, qsSmall.RawSeriesExamined)
	}
	_ = collBig
}

func TestLeafBounderInterface(t *testing.T) {
	ds := dataset.RandomWalk(200, 64, 9)
	ix, _ := build(t, ds, core.Options{})
	members := ix.LeafMembers()
	if len(members) != ds.Len() {
		t.Fatalf("VA+file regions: %d, want one per series", len(members))
	}
	lb := ix.LeafLB(ds.Series[0], 0)
	if lb != 0 {
		t.Errorf("LB of a series against its own cell should be 0, got %g", lb)
	}
}
