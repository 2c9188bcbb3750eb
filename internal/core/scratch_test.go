package core

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hydra/internal/dataset"
	"hydra/internal/series"
)

// refPQ is a reference container/heap implementation with the same
// less-by-bound ordering the per-package query heaps used before BoundHeap
// replaced them.
type refItem struct {
	lb float64
	id int
}
type refPQ []refItem

func (p refPQ) Len() int           { return len(p) }
func (p refPQ) Less(i, j int) bool { return p[i].lb < p[j].lb }
func (p refPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x any)        { *p = append(*p, x.(refItem)) }
func (p *refPQ) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// TestBoundHeapMatchesContainerHeap drives BoundHeap and container/heap
// through the same randomized push/pop interleavings: the popped (bound,
// identity) sequences must be identical, including the order of equal
// bounds — that is what keeps traversal order (and with it the per-query
// stats) unchanged after the heap swap.
func TestBoundHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var h BoundHeap[*int]
		ref := &refPQ{}
		ids := make([]int, 0, 400)
		for op := 0; op < 400; op++ {
			if h.Len() == 0 || rng.Intn(3) > 0 {
				lb := float64(rng.Intn(16)) // few distinct bounds: many ties
				ids = append(ids, op)
				h.Push(lb, &ids[len(ids)-1])
				heap.Push(ref, refItem{lb: lb, id: op})
			} else {
				lb, node := h.PopMin()
				want := heap.Pop(ref).(refItem)
				if lb != want.lb || *node != want.id {
					t.Fatalf("trial %d op %d: popped (%g, %d), container/heap (%g, %d)",
						trial, op, lb, *node, want.lb, want.id)
				}
			}
		}
	}
}

// TestQueueByBoundPopsSortedOrder is the contract the VA+file's lazy visit
// order rests on: whatever k the leading ids were picked for, whichever
// pruner (exact or ε-relaxed) cuts the queue and however the caller's bound
// falls between calls, Next yields exactly the prefix of the permutation
// sort.Slice over (lb, id) yields that ends before the first id the pruner
// rules out — with heavy ties, +Inf bounds (ADS+-style exclusions) and the
// degenerate sizes — and one Scratch can be re-queued over a different bound
// array of any size afterwards. The heap behind the leading ids must hold no
// id the bound had already ruled out when it was built.
func TestQueueByBoundPopsSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sc Scratch
	for _, n := range []int{0, 1, 2, 3, 7, 10000, 64, 1001, 5} {
		for _, distinct := range []int{1, 4, n + 1} {
			for _, k := range []int{0, 1, 3, maxSelect, 2 * maxSelect} {
				for _, eps := range []float64{0, 1} {
					lbs := make([]float64, n)
					for i := range lbs {
						lbs[i] = float64(rng.Intn(distinct))
						if rng.Intn(10) == 0 {
							lbs[i] = math.Inf(1)
						}
					}
					want := make([]int, n)
					for i := range want {
						want[i] = i
					}
					sort.Slice(want, func(a, b int) bool {
						if lbs[want[a]] != lbs[want[b]] {
							return lbs[want[a]] < lbs[want[b]]
						}
						return want[a] < want[b]
					})
					pr := NewPruner(ApproxSpec{Mode: ModeDeltaEps, Epsilon: eps}, 0)
					// The bound falls from +Inf towards a random cut of the
					// bound range as ids are yielded, like a filling KNNSet's.
					bound, floor := math.Inf(1), rng.Float64()*float64(distinct)*pr.factor
					q := sc.QueueByBound(lbs, k)
					for pos := 0; ; pos++ {
						got, ok := q.Next(&pr, bound)
						if pos == n || pr.Prune(lbs[want[pos]], bound) {
							if ok {
								t.Fatalf("n=%d distinct=%d k=%d eps=%g: pop %d yields id %d (lb %g) past the end or the bound %g",
									n, distinct, k, eps, pos, got, lbs[got], bound)
							}
							break
						}
						if !ok || got != want[pos] {
							t.Fatalf("n=%d distinct=%d k=%d eps=%g: pop %d = (%d, %v), sorted order has id %d (lb %g, bound %g)",
								n, distinct, k, eps, pos, got, ok, want[pos], lbs[want[pos]], bound)
						}
						if pos == min(k, maxSelect) { // this call built the heap
							for _, id := range q.ids {
								if pr.Prune(lbs[id], bound) {
									t.Fatalf("n=%d k=%d: id %d (lb %g) queued although the bound %g rules it out", n, k, id, lbs[id], bound)
								}
							}
						}
						if pos >= k/2 && rng.Intn(2) == 0 {
							bound = math.Min(bound, floor+(bound-floor)*rng.Float64())
							if math.IsInf(bound, 1) {
								bound = 2 * float64(distinct) * pr.factor
							}
						}
					}
				}
			}
		}
	}
}

// TestScratchSequentialReuse answers interleaved queries through one
// Scratch and checks every derived artifact against fresh computations: a
// stale buffer surviving from the previous query would corrupt the order or
// the result set.
func TestScratchSequentialReuse(t *testing.T) {
	ds := dataset.RandomWalk(300, 96, 3)
	coll := NewCollection(ds)
	queries := dataset.SynthRand(10, 96, 4).Queries
	var sc Scratch
	for round := 0; round < 3; round++ {
		for qi, q := range queries {
			ord := sc.Order(q)
			wantOrd := series.NewOrder(q)
			for i := range q {
				if ord.At(i) != wantOrd.At(i) {
					t.Fatalf("round %d query %d: scratch order diverges at %d", round, qi, i)
				}
			}
			set := sc.KNN(3)
			want := NewKNNSet(3)
			for i := 0; i < coll.File.Len(); i++ {
				d := series.SquaredDist(q, coll.File.Peek(i))
				set.Add(i, d)
				want.Add(i, d)
			}
			got, exp := set.Results(), want.Results()
			if len(got) != len(exp) {
				t.Fatalf("round %d query %d: %d results, want %d", round, qi, len(got), len(exp))
			}
			for i := range exp {
				if got[i] != exp[i] {
					t.Fatalf("round %d query %d: result %d = %+v, want %+v (cross-query contamination?)",
						round, qi, i, got[i], exp[i])
				}
			}
		}
	}
}

// TestScratchPoolConcurrent hammers one ScratchPool from many goroutines
// answering different queries (run under -race): every query must produce
// exactly the single-threaded answer, proving pooled scratches are never
// shared between in-flight queries.
func TestScratchPoolConcurrent(t *testing.T) {
	ds := dataset.RandomWalk(400, 64, 5)
	queries := dataset.SynthRand(16, 64, 6).Queries
	want := make([][]Match, len(queries))
	for i, q := range queries {
		want[i] = BruteForceKNN(NewCollection(ds), q, 5)
	}
	var pool ScratchPool
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			coll := NewCollection(ds)
			for rep := 0; rep < 20; rep++ {
				qi := (w*7 + rep) % len(queries)
				q := queries[qi]
				sc := pool.Get()
				set := sc.KNN(5)
				for i := 0; i < coll.File.Len(); i++ {
					set.Add(i, series.SquaredDist(q, coll.File.Peek(i)))
				}
				got := set.Results()
				pool.Put(sc)
				for i := range want[qi] {
					if got[i] != want[qi][i] {
						done <- fmt.Errorf("worker %d query %d: %+v want %+v", w, qi, got[i], want[qi][i])
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
