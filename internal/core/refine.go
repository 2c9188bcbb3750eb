package core

import (
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// MemberBound returns a squared lower bound on the distance between the
// query and collection series id, computed from a per-member summary the
// index keeps in memory (iSAX2+: the full-cardinality SAX word; SFA: the DFT
// features). It must never exceed the true squared distance.
type MemberBound func(id int) float64

// Refiner is the one raw-distance refine loop of the index methods: every
// leaf a traversal decides to read goes through Leaf, which owns the leaf's
// I/O charge, the DistCalcs / RawSeriesExamined / LBCalcs accounting and the
// early-abandoning kernel call. A Refiner serves one query and lives on its
// stack; it charges the query's own storage.Cursor, which the query flushes
// when it ends. The query's stats record is passed to each call instead of
// bound: the escape analysis treats a struct's pointers as one, so a bound
// record would escape wherever any of the others does.
//
// With a MemberBound the leaf is filtered a second time, per member (the
// ParIS+/MESSI step): a member's raw series is skipped only if its own
// bound exceeds the best-so-far. The member predicate is the exact
// lb > Bound() whatever the query's mode — never the ε-relaxed
// Pruner.Prune. A member it skips has a true distance above the k-th best,
// so KNNSet.Add would have refused it: the result set, and therefore every
// later bound, prune and stop decision, evolves exactly as without the
// filter, in exact and approximate modes alike. The relaxed predicate would
// instead drop members the unfiltered loop admits, changing approximate
// answers. A member whose bound equals Bound() is read, because Add admits
// an exact tie, distance == Bound(), from a smaller id than the
// incumbent's; for the same reason a bound must not round above the
// kernel's distance (SynopsisQuery.Loosen).
type Refiner struct {
	cur *storage.Cursor
	q   series.Series
	ord series.Order
	set *KNNSet
}

// NewRefiner binds the loop to one query's state: the cursor its reads are
// charged to, its reordered form and its result set.
func NewRefiner(cur *storage.Cursor, q series.Series, ord series.Order, set *KNNSet) Refiner {
	return Refiner{cur: cur, q: q, ord: ord, set: set}
}

// Bound returns the result set's current pruning bound, the k-th best
// squared distance — for leaves that pre-filter their members themselves.
func (r *Refiner) Bound() float64 { return r.set.Bound() }

// Leaf refines one materialized leaf: a single leaf access is charged for
// all of ids (the leaf is one contiguous read whatever the filter skips
// afterwards), then Members runs. An empty leaf costs nothing.
func (r *Refiner) Leaf(ids []int, lb MemberBound, qs *stats.QueryStats) {
	if len(ids) == 0 {
		return
	}
	r.cur.Leaf(len(ids))
	r.Members(ids, lb, qs)
}

// Members is Leaf without the I/O charge, for callers that charge the
// access themselves (ADS+'s adaptive materialization). lb may be nil.
func (r *Refiner) Members(ids []int, lb MemberBound, qs *stats.QueryStats) {
	for _, id := range ids {
		if lb != nil {
			qs.LBCalcs++
			if lb(id) > r.set.Bound() {
				continue
			}
		}
		r.Member(id, qs)
	}
}

// Member compares one raw series to the query and offers it to the result
// set — the loop body, exported for the M-tree, whose leaf entries are
// interleaved with its own triangle-inequality test.
func (r *Refiner) Member(id int, qs *stats.QueryStats) {
	d := series.SquaredDistEAOrderedBlocked(r.q, r.cur.Peek(id), r.ord, r.set.Bound())
	qs.DistCalcs++
	qs.RawSeriesExamined++
	r.set.Add(id, d)
}
