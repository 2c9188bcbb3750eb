package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// referenceVisitLeaf is the leaf loop the index packages each carried before
// Refiner replaced them, kept as its reference.
func referenceVisitLeaf(c *Collection, ids []int, q series.Series, ord series.Order, set *KNNSet, qs *stats.QueryStats) {
	if len(ids) == 0 {
		return
	}
	c.Counters.ChargeRand(int64(len(ids)) * c.File.SeriesBytes()) // one leaf access
	for _, id := range ids {
		d := series.SquaredDistEAOrderedBlocked(q, c.File.Peek(id), ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(id, d)
	}
}

// TestRefinerMatchesReferenceLoop walks the same random leaves through the
// reference loop, the Refiner without a member bound and the Refiner with
// one, from one running result set each. Unfiltered, the Refiner is the
// reference to the counter and the I/O byte; filtered — by bounds from
// useless (0) to perfect (the distance itself, so lb = d ties occur, and the
// collection holds duplicates and the query itself) — it leaves the same
// result set after every leaf, having examined no more raw series and
// charged the same leaf reads.
func TestRefinerMatchesReferenceLoop(t *testing.T) {
	ds := dataset.RandomWalk(600, 64, 5)
	// Duplicates summarize alike, so an index keeps them in one leaf, in
	// ascending id: group[i] lists series i with its copy, if it has one.
	group := make([][]int, 560)
	for i := range group {
		group[i] = []int{i}
	}
	for i := 0; i < 40; i++ {
		copy(ds.Series[560+i], ds.Series[7*i])
		group[7*i] = append(group[7*i], 560+i)
	}
	rng := rand.New(rand.NewSource(9))
	queries := append(dataset.SynthRand(6, 64, 6).Queries, ds.Series[14], make(series.Series, 64))
	for qi, q := range queries {
		for _, k := range []int{1, 4} {
			for _, tight := range []float64{0, 0.5, 1} {
				ref, plain, filtered := NewCollection(ds), NewCollection(ds), NewCollection(ds)
				ord := series.NewOrder(q)
				var refQS, plainQS, filtQS stats.QueryStats
				refSet, plainSet, filtSet := NewKNNSet(k), NewKNNSet(k), NewKNNSet(k)
				plainCur, filtCur := plain.File.Cursor(), filtered.File.Cursor()
				plainRF := NewRefiner(&plainCur, q, ord, plainSet)
				filtRF := NewRefiner(&filtCur, q, ord, filtSet)
				bound := func(id int) float64 { return tight * series.SquaredDist(q, ds.Series[id]) }
				var members int64
				perm := rng.Perm(len(group))
				for leaf := 0; leaf < 30; leaf++ {
					var ids []int
					for _, g := range perm[leaf*18 : leaf*18+rng.Intn(19)] {
						ids = append(ids, group[g]...)
					}
					sort.Ints(ids)
					members += int64(len(ids))
					referenceVisitLeaf(ref, ids, q, ord, refSet, &refQS)
					plainRF.Leaf(ids, nil, &plainQS)
					filtRF.Leaf(ids, bound, &filtQS)
					want := refSet.Results()
					for name, set := range map[string]*KNNSet{"unfiltered": plainSet, "filtered": filtSet} {
						got := set.Results()
						if len(got) != len(want) {
							t.Fatalf("query %d k=%d tight=%g leaf %d %s: %d results, reference %d", qi, k, tight, leaf, name, len(got), len(want))
						}
						for i := range want {
							if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
								t.Fatalf("query %d k=%d tight=%g leaf %d %s result %d: %+v, reference %+v", qi, k, tight, leaf, name, i, got[i], want[i])
							}
						}
					}
				}
				plainCur.Flush()
				filtCur.Flush()
				if plainQS != refQS || plain.Counters.Snapshot() != ref.Counters.Snapshot() {
					t.Errorf("query %d k=%d: unfiltered counters %v io %v, reference %v io %v", qi, k,
						plainQS, plain.Counters.Snapshot(), refQS, ref.Counters.Snapshot())
				}
				if filtQS.RawSeriesExamined > refQS.RawSeriesExamined || filtQS.DistCalcs != filtQS.RawSeriesExamined ||
					filtQS.LBCalcs != members || filtered.Counters.Snapshot() != ref.Counters.Snapshot() {
					t.Errorf("query %d k=%d tight=%g: filtered counters %v io %v over %d members, reference %v io %v", qi, k, tight,
						filtQS, filtered.Counters.Snapshot(), members, refQS, ref.Counters.Snapshot())
				}
				if tight == 1 && filtQS.RawSeriesExamined > int64(30*k) {
					t.Errorf("query %d k=%d: a perfect member bound still examined %d raw series", qi, k, filtQS.RawSeriesExamined)
				}
			}
		}
	}
}
