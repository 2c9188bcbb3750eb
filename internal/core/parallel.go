package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"hydra/internal/faultpoint"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// ErrWorkerPanic is the sentinel wrapped by the error a parallel scan
// returns when one of its worker goroutines panicked (including faultpoint
// drills): the panic is recovered at the worker boundary, the remaining
// workers finish, and the query reports a typed error instead of crashing
// the process. The scan holds no cross-query state, so the collection and
// method stay fully usable afterwards.
var ErrWorkerPanic = errors.New("core: scan worker panicked")

// BestSoFar is a lock-free pruning bound shared by concurrent scan workers,
// the coordination device of MESSI-style parallel query answering: every
// worker prunes against the global minimum of all workers' published bounds
// instead of only its own. The value is stored as float64 bits in an atomic
// word; updates are compare-and-swap minimum, so the bound only ever
// tightens.
type BestSoFar struct {
	bits atomic.Uint64
}

// NewBestSoFar returns a shared bound initialized to +Inf (nothing pruned).
func NewBestSoFar() *BestSoFar {
	b := &BestSoFar{}
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

// Load returns the current shared bound.
func (b *BestSoFar) Load() float64 {
	return math.Float64frombits(b.bits.Load())
}

// Tighten lowers the shared bound to v if v is smaller, retrying the CAS
// until this update is reflected or a concurrent update made it obsolete.
// It reports whether this call lowered the bound — the signal the streaming
// query paths publish as a best-so-far improvement.
func (b *BestSoFar) Tighten(v float64) bool {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= v {
			return false
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return true
		}
	}
}

// Merge folds every candidate of o into s, preserving the deterministic
// (distance, then ascending ID) selection: for a fixed multiset of
// candidates the resulting top-k is unique regardless of insertion order, so
// merging per-shard sets reproduces the serial scan's answer exactly.
func (s *KNNSet) Merge(o *KNNSet) {
	for _, m := range o.heap {
		s.Add(m.ID, m.Dist)
	}
}

// ParallelScanKNN answers an exact k-NN query with a parallel sequential
// scan: the raw file is split into one contiguous shard per worker, read
// through the worker's own storage.Cursor; each worker runs the UCR-suite
// reordered early-abandoning scan over its shard against min(its own bound,
// the shared BestSoFar), and the per-shard result sets are merged
// deterministically (ties by ascending ID).
//
// The result is bit-identical to the serial UCR-suite scan for any worker
// count: a candidate that belongs to the final top-k is never abandoned
// (every bound in play is at least the final k-th distance), so its distance
// is the full sum computed in the same per-element order as the serial
// kernel, and the (distance, ID) selection is order-independent.
//
// I/O accounting keeps the paper's §4.2 convention exactly: the scan moves
// the file size once, as sequential reads plus one seek per shard except the
// one at offset zero. Workers count their reads in their own cursors and
// flush them once each, so they share only the best-so-far bound and the
// final merge. workers <= 0 selects runtime.GOMAXPROCS(0).
//
// Per-query state (the query order, each worker's result set) comes from a
// package-level ScratchPool, so a steady stream of parallel queries reuses
// the same buffers instead of re-allocating them. Worker sets are merged
// into one shared set under a mutex as workers finish; the (distance, then
// ascending ID) selection makes the merged top-k independent of merge order.
//
// Cancellation: every worker polls ctx once per CancelBlock candidates and
// stops scanning within one block of a cancel; the call then returns
// ctx.Err(). Queries that run to completion are unaffected by the polls.
func ParallelScanKNN(ctx context.Context, c *Collection, q series.Series, k, workers int) ([]Match, stats.QueryStats, error) {
	return scanKNN(ctx, c, q, k, workers, nil)
}

// ScanKNNStream is ParallelScanKNN with progress reporting: whenever a
// candidate tightens the cross-worker shared best-so-far bound, emit is
// called with that candidate (true, square-rooted distance). Emissions are a
// best-effort progress signal — their number and order depend on worker
// scheduling — but the final return value is the exact answer,
// bit-identical to ParallelScanKNN. emit is called from worker goroutines
// and must be safe for concurrent use; it must not block on the caller, or
// it stalls the scan.
func ScanKNNStream(ctx context.Context, c *Collection, q series.Series, k, workers int, emit func(Match)) ([]Match, stats.QueryStats, error) {
	return scanKNN(ctx, c, q, k, workers, emit)
}

func scanKNN(ctx context.Context, c *Collection, q series.Series, k, workers int, emit func(Match)) ([]Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	qs.DatasetSize = int64(c.File.Len())
	if len(q) != c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("core: query length %d, collection length %d", len(q), c.File.SeriesLen())
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cur := c.File.Cursor()
	n := cur.Len()
	if n == 0 {
		return nil, qs, nil
	}
	workers = min(workers, n)
	ps := scanScratch.Get()
	defer scanScratch.Put(ps)
	ord, qw := ps.Order(q), ps.Wide(q)
	merged := ps.KNN(k)
	shared := NewBestSoFar()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var workerPanic error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wc storage.Cursor) {
			defer wg.Done()
			// Worker panics (a bug in a kernel, or an armed faultpoint
			// drill) are recovered here, at the goroutine boundary where
			// they would otherwise kill the process, and surfaced as one
			// typed ErrWorkerPanic for the whole query. The worker's
			// partial set is discarded; its siblings finish normally.
			defer func() {
				if p := recover(); p != nil {
					mu.Lock()
					if workerPanic == nil {
						workerPanic = fmt.Errorf("%w: %v", ErrWorkerPanic, p)
					}
					mu.Unlock()
				}
			}()
			faultpoint.MaybePanic(faultpoint.ScanWorkerPanic)
			faultpoint.ChurnAllocs(faultpoint.ScanAllocPressure)
			wsc := scanScratch.Get()
			defer scanScratch.Put(wsc)
			set := wsc.KNN(k)
			var ws stats.QueryStats
			// A cancel stops the scan, but the counters below still merge:
			// the caller reports ctx.Err() (results are discarded on the
			// exact path), and a degraded partial answer must carry the
			// work actually done, not zeros.
			_ = ScanRows(ctx, &wc, qw, ord, set, shared, emit, &ws)
			rec := wc.Flush()
			mu.Lock()
			merged.Merge(set)
			qs.DistCalcs += ws.DistCalcs
			qs.RawSeriesExamined += ws.RawSeriesExamined
			qs.IO = qs.IO.Add(rec)
			mu.Unlock()
		}(cur.Slice(w*n/workers, (w+1)*n/workers))
	}
	wg.Wait()
	if workerPanic != nil {
		return nil, qs, workerPanic
	}
	if err := ctx.Err(); err != nil {
		return nil, qs, err
	}
	return merged.Results(), qs, nil
}

// scanScratch pools the per-query and per-worker scratch state of
// ParallelScanKNN across all collections in the process.
var scanScratch ScratchPool
