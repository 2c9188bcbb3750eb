package core

import (
	"context"
	"math"

	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// ScanRows is the UCR-suite scan loop — reordered early abandoning against
// the running k-th best distance — over the rows of cur: the whole serial
// scan, or one shard of a parallel one. It reads CancelBlock rows at a time
// with one cursor charge (storage.Cursor.ReadRun, which charges what one
// Read per row would) and polls ctx before each run; within a run the
// kernel (series.ScanRun) walks the rows itself and returns only at a row
// whose full distance is within the bound. qw is the query widened to
// float64 (Scratch.Wide) and ord its order. Every row read counts as one
// distance calculation and one examined series in qs.
//
// Only rows that pass reach set.Add. A parallel worker passes the shared
// best-so-far: the bound of each kernel call is the smaller of the set's and
// the shared one, the set's bound tightens the shared one after an Add,
// and emit (if not nil) receives an added row, at its true distance, when
// that lowered the shared bound or the set is still filling. A shared bound
// read once per kernel call can only be stale on the loose side, so it lets
// through rows the exact answer does not need, never holds one back: every
// bound in play is at least the final k-th distance, so a row of the final
// top-k always passes, at the full distance the per-candidate kernel
// computes. ScanRows returns ctx.Err() when a poll finds ctx done, with the
// runs already read charged and counted.
func ScanRows(ctx context.Context, cur *storage.Cursor, qw []float64, ord series.Order, set *KNNSet, shared *BestSoFar, emit func(Match), qs *stats.QueryStats) error {
	l := len(qw)
	for lo, hi := cur.Lo(), cur.Hi(); lo < hi; lo += CancelBlock {
		if err := Canceled(ctx); err != nil {
			return err
		}
		n := min(CancelBlock, hi-lo)
		rows := cur.ReadRun(lo, n)
		qs.DistCalcs += int64(n)
		qs.RawSeriesExamined += int64(n)
		for j := 0; j < n; j++ {
			bound := set.Bound()
			if shared != nil {
				if g := shared.Load(); g < bound {
					bound = g
				}
			}
			next, d := series.ScanRun(qw, rows[j*l:], n-j, ord, bound)
			if j += next; j == n {
				break
			}
			id := lo + j
			if !set.Add(id, d) || shared == nil {
				continue
			}
			// A candidate is progress when it tightens the shared
			// cross-worker bound — or enters a still-filling heap (bound
			// +Inf), so a deadline-degraded consumer sees the first k
			// candidates too, not only the evictions.
			improved := shared.Tighten(set.Bound())
			if emit != nil && (improved || math.IsInf(set.Bound(), 1)) {
				emit(Match{ID: id, Dist: math.Sqrt(d)})
			}
		}
	}
	return nil
}
