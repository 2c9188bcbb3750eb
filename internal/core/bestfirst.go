package core

import (
	"context"

	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// Tree is what one index supplies to BestFirst for one query: where the
// query's own path ends, how its nodes are scored, and how a leaf is read.
// Everything else about the walk is BestFirst's. Implementations are
// per-query values kept in the query's Scratch (see StateOf), so the walk's
// calls through this interface move nothing to the heap.
type Tree[N comparable] interface {
	// Descend returns the ng leaf — the leaf the query's own summary leads
	// to — and its members; ok is false when the path ends before a leaf.
	Descend() (leaf N, members []int, ok bool)
	// Roots queues the walk's first nodes on f, counting the bounds it
	// computes in qs. It runs once, after the ng return, so state only the
	// exact walk reads (a member-bound table) is built here and an ng query
	// never pays for it.
	Roots(f *Frontier[N], qs *stats.QueryStats)
	// Expand queues n's children on f and reports true, or reports false
	// when n is a leaf.
	Expand(n N, f *Frontier[N], qs *stats.QueryStats) bool
	// Refine reads leaf n through rf, with whatever member filter the index
	// keeps.
	Refine(n N, rf *Refiner, qs *stats.QueryStats)
}

// Frontier is a best-first walk's per-query state: the queue of nodes not
// yet visited, ordered by squared lower bound, with the pruner, result set,
// refine loop, cursor and stats record they are judged and charged against.
// It lives in the query's Scratch.
type Frontier[N any] struct {
	h   BoundHeap[N]
	pr  Pruner
	set *KNNSet
	rf  Refiner
	cur storage.Cursor
	qs  stats.QueryStats
}

// Push queues n under squared lower bound lb, unless the pruner already
// rules lb out against the current k-th best.
func (f *Frontier[N]) Push(lb float64, n N) {
	if !f.pr.Prune(lb, f.set.Bound()) {
		f.h.Push(lb, n)
	}
}

// BestFirst is the one traversal of the trees that read leaves (iSAX2+,
// ADS-FULL, DSTree, SFA, R*-tree), in every query mode. It polls ctx, refines
// the ng leaf without a member filter, and returns there in ng mode or when
// the pruner stops; otherwise it walks the tree's nodes in ascending bound
// order, pruning at push and at pop, polling ctx once per pop, skipping the
// ng leaf when it comes round again and counting a visit after each leaf
// and each expansion. The spec's pruner owns every skip and stop decision:
// an exact spec keeps the unrelaxed lb >= bound predicate, so exact answers
// are those of the plain best-first search.
func BestFirst[N comparable, T Tree[N]](ctx context.Context, sc *Scratch, c *Collection, q series.Series, k int, spec ApproxSpec, t T) ([]Match, stats.QueryStats, error) {
	f, ok := sc.frontier.(*Frontier[N])
	if !ok {
		f = new(Frontier[N])
		sc.frontier = f
	}
	f.h.Reset()
	f.qs = stats.QueryStats{}
	qs := &f.qs
	if err := Canceled(ctx); err != nil {
		return nil, *qs, err
	}
	f.set = sc.KNN(k)
	f.pr = NewQueryPruner(c, q, spec, qs)
	f.cur = c.File.Cursor()
	f.rf = NewRefiner(&f.cur, q, sc.Order(q), f.set)

	ng, members, hasNG := t.Descend()
	if hasNG {
		f.rf.Leaf(members, nil, qs)
		if f.pr.Visit() || f.pr.StopSatisfied(f.set.Bound()) {
			return f.finish()
		}
	}
	if spec.Mode == ModeNG {
		return f.finish()
	}
	t.Roots(f, qs)
	for f.h.Len() > 0 {
		if err := Canceled(ctx); err != nil {
			qs.IO = f.cur.Flush()
			return nil, *qs, err
		}
		lb, n := f.h.PopMin()
		if f.pr.Prune(lb, f.set.Bound()) {
			break
		}
		if t.Expand(n, f, qs) {
			if f.pr.Visit() {
				break
			}
			continue
		}
		if !hasNG || n != ng {
			t.Refine(n, &f.rf, qs)
		}
		if f.pr.Visit() || f.pr.StopSatisfied(f.set.Bound()) {
			break
		}
	}
	return f.finish()
}

func (f *Frontier[N]) finish() ([]Match, stats.QueryStats, error) {
	f.pr.Finish(&f.qs)
	f.qs.IO = f.cur.Flush()
	return f.set.Results(), f.qs, nil
}
