package vafile

import (
	"context"
	"fmt"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/difftest"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// referenceQueue is the visit order this package drew from before the queue
// was thresholded by the bound, kept as the reference: a binary min-heap of
// all candidate ids keyed by (lower bound, id), heapified in O(n) whatever
// the query goes on to pop.
type referenceQueue struct {
	ids []int
	lb  []float64
}

func newReferenceQueue(lbs []float64) *referenceQueue {
	q := &referenceQueue{ids: make([]int, len(lbs)), lb: lbs}
	for i := range q.ids {
		q.ids[i] = i
	}
	for i := len(lbs)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	return q
}

func (q *referenceQueue) pop() int {
	top := q.ids[0]
	n := len(q.ids) - 1
	q.ids[0] = q.ids[n]
	q.ids = q.ids[:n]
	q.down(0)
	return top
}

func (q *referenceQueue) down(i int) {
	ids, lb := q.ids, q.lb
	n := len(ids)
	if i >= n {
		return
	}
	id := ids[i]
	key := lb[id]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			lkey, rkey := lb[ids[c]], lb[ids[r]]
			if rkey < lkey || rkey == lkey && ids[r] < ids[c] {
				c = r
			}
		}
		cid := ids[c]
		ckey := lb[cid]
		if key < ckey || key == ckey && id < cid {
			break
		}
		ids[i] = cid
		i = c
	}
	ids[i] = id
}

// tracedSearch is search with phase 2 written out in the test so that it can
// record the ids it verifies, drawing them from the reference queue or from
// the production one. It also reports how many ids the production queue put
// on its heap.
func tracedSearch(ix *Index, q series.Series, k int, spec core.ApproxSpec, reference bool) (matches []core.Match, qs stats.QueryStats, visited []int, queued int) {
	qf := ix.xform.Apply(q)
	ord := series.NewOrder(q)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)
	n := ix.numCodes()
	table := make([]float64, ix.quant.TableLen())
	ix.quant.LowerBoundTable(qf, table)
	lbs := make([]float64, n)
	ix.quant.LowerBoundBatch(table, ix.codesT, lbs)
	qs.LBCalcs += int64(n)

	var sc core.Scratch
	queue := sc.QueueByBound(lbs, k)
	next := func(bound float64) (int, bool) { return queue.Next(&pr, bound) }
	if reference {
		ref := newReferenceQueue(lbs)
		next = func(bound float64) (int, bool) {
			id := ref.pop()
			return id, !pr.Prune(lbs[id], bound)
		}
	}
	ngBudget := n
	if spec.Mode == core.ModeNG && k < ngBudget {
		ngBudget = k
	}
	set := core.NewKNNSet(k)
	for oi := 0; oi < ngBudget; oi++ {
		id, ok := next(set.Bound())
		if !ok {
			break
		}
		visited = append(visited, id)
		d := series.SquaredDistEAOrderedBlocked(q, ix.c.File.Peek(id), ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(id, d)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			break
		}
	}
	pr.Finish(&qs)
	return set.Results(), qs, visited, queue.Queued()
}

// TestVAFileVisitOrderMatchesReference pins the thresholded queue to the
// heapify-everything one it replaced: in every mode, on random-walk and
// controlled queries, a member itself and the constant query, phase 2
// verifies the same ids in the same order whichever queue it draws from, and
// the real search reports that run's answers (same IDs, Float64bits-equal
// distances) and counters.
func TestVAFileVisitOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		ds := dataset.RandomWalk(3000, 128, seed)
		ix, _ := build(t, ds, core.Options{})
		for mode, spec := range difftest.Modes {
			for qi, q := range difftest.Queries(ds, seed) {
				for _, k := range []int{1, 5, 100} {
					at := fmt.Sprintf("seed %d %s query %d k=%d", seed, mode, qi, k)
					want, wantQS, wantVisits, _ := tracedSearch(ix, q, k, spec, true)
					_, _, gotVisits, _ := tracedSearch(ix, q, k, spec, false)
					if len(gotVisits) != len(wantVisits) {
						t.Fatalf("%s: %d candidates verified, reference order %d", at, len(gotVisits), len(wantVisits))
					}
					for i := range wantVisits {
						if gotVisits[i] != wantVisits[i] {
							t.Fatalf("%s: visit %d is id %d, reference order has id %d", at, i, gotVisits[i], wantVisits[i])
						}
					}
					got, gotQS, err := ix.KNNApprox(context.Background(), q, k, spec)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					difftest.SameAnswers(t, at, got, want)
					if gotQS.RawSeriesExamined != wantQS.RawSeriesExamined || gotQS.DistCalcs != wantQS.DistCalcs ||
						gotQS.LBCalcs != wantQS.LBCalcs || gotQS.NodesVisited != wantQS.NodesVisited || gotQS.EarlyStop != wantQS.EarlyStop {
						t.Errorf("%s: counters %v nodes %d stop %q, reference %v nodes %d stop %q", at,
							gotQS, gotQS.NodesVisited, gotQS.EarlyStop, wantQS, wantQS.NodesVisited, wantQS.EarlyStop)
					}
				}
			}
		}
	}
}

// TestRefineWorkBudget is the count-based gate on the thresholded queue: on
// a fixed seed, the heap behind the k best-bounded candidates holds at most
// a tenth of the collection (the reference heapifies all of it), and an ng
// query builds none.
func TestRefineWorkBudget(t *testing.T) {
	ds := dataset.RandomWalk(10000, 256, 42)
	ix, _ := build(t, ds, core.Options{})
	var queued int
	queries := dataset.SynthRand(20, 256, 7).Queries
	for _, q := range queries {
		_, _, _, n := tracedSearch(ix, q, 1, core.ApproxSpec{}, false)
		queued += n
		if _, _, _, n := tracedSearch(ix, q, 1, core.ApproxSpec{Mode: core.ModeNG}, false); n != 0 {
			t.Errorf("ng query queued %d ids", n)
		}
	}
	perQuery := float64(queued) / float64(len(queries))
	t.Logf("%.0f of %d ids queued per query", perQuery, ds.Len())
	if perQuery > float64(ds.Len())/10 {
		t.Errorf("%.0f ids queued per query, more than a tenth of %d", perQuery, ds.Len())
	}
}
