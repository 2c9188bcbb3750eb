// Package stats defines the measurement records used throughout the
// experimental framework: per-query metrics (wall time, simulated I/O time,
// disk accesses, distance computations, pruning ratio — §4.2 "Measures" of
// the paper) and aggregation helpers implementing the paper's procedures,
// such as the 10K-query extrapolation.
package stats

import (
	"fmt"
	"sort"
	"time"

	"hydra/internal/storage"
)

// QueryStats captures the cost of answering one similarity query.
type QueryStats struct {
	// RawSeriesExamined counts candidate series whose raw representation was
	// compared to the query (the numerator of the pruning ratio).
	RawSeriesExamined int64
	// DatasetSize is the total number of series in the collection.
	DatasetSize int64
	// DistCalcs counts full or partial Euclidean distance computations in the
	// original high-dimensional space.
	DistCalcs int64
	// LBCalcs counts lower-bound distance computations in reduced space.
	LBCalcs int64
	// IO is the simulated disk activity attributable to this query.
	IO storage.Snapshot
	// CPUTime is the measured wall time of the query minus nothing — on this
	// simulated substrate all measured time is compute, since I/O is counted,
	// not performed.
	CPUTime time.Duration
	// Partial marks a degraded answer: the query's deadline expired and the
	// matches are the best-so-far at that moment, not the proven exact top-k
	// (see hydra.WithPartialOnDeadline). The counters then cover only the
	// work actually done. Never set on exact answers.
	Partial bool
	// NodesVisited counts the index structures the query touched: popped
	// tree nodes plus visited leaves for best-first methods, or verified
	// raw candidates (plus the descent leaf) for the filter-file methods
	// (ADS+, VA+file). It is the denominator of the approximate modes'
	// work-saved claim — a δ-ε query's NodesVisited divided by the exact
	// query's is the traversal saving. Zero for methods that do not count
	// (the plain scans).
	NodesVisited int64
	// Mode names the guarantee class that produced the answer: "" or
	// "exact" for exact search, "ng" for ng-approximate (first-leaf) search,
	// "delta-eps" for δ-ε-approximate search, "budget" for budget-bounded
	// search (see hydra.WithApproxMode).
	Mode string
	// Epsilon is the relative distance-error bound of a δ-ε answer: the
	// reported k-th distance is within (1+ε) of the true one (with
	// probability Delta). Only meaningful when Mode is "delta-eps".
	Epsilon float64
	// Delta is the confidence of a δ-ε answer's ε guarantee; 1 means the
	// guarantee is deterministic. Only meaningful when Mode is "delta-eps".
	Delta float64
	// EarlyStop names the condition that ended an approximate traversal
	// before exhausting it: "" (ran to its pruning-complete end), "delta"
	// (the probabilistic r_δ stop fired), or "nodes" (node budget).
	EarlyStop string
}

// PruningRatio returns P = 1 - examined/collection size (§4.2, measure 3).
// Higher is better; 0 when the dataset size is unknown.
func (q QueryStats) PruningRatio() float64 {
	if q.DatasetSize == 0 {
		return 0
	}
	return 1 - float64(q.RawSeriesExamined)/float64(q.DatasetSize)
}

// TotalTime returns CPU time plus simulated I/O time on device d.
func (q QueryStats) TotalTime(d storage.DeviceProfile) time.Duration {
	return q.CPUTime + q.IO.IOTime(d)
}

// Add accumulates o into q (for workload totals). Counters sum; the mode
// and guarantee fields stick to the first non-empty value, so a uniform
// workload's total keeps its mode.
func (q *QueryStats) Add(o QueryStats) {
	q.RawSeriesExamined += o.RawSeriesExamined
	q.DistCalcs += o.DistCalcs
	q.LBCalcs += o.LBCalcs
	q.NodesVisited += o.NodesVisited
	q.IO = q.IO.Add(o.IO)
	q.CPUTime += o.CPUTime
	if o.DatasetSize > q.DatasetSize {
		q.DatasetSize = o.DatasetSize
	}
	if q.Mode == "" {
		q.Mode, q.Epsilon, q.Delta = o.Mode, o.Epsilon, o.Delta
	}
}

// String formats the per-query cost counters for logs and test output.
func (q QueryStats) String() string {
	return fmt.Sprintf("examined=%d/%d dist=%d lb=%d io={%s} cpu=%s",
		q.RawSeriesExamined, q.DatasetSize, q.DistCalcs, q.LBCalcs, q.IO, q.CPUTime)
}

// BuildStats captures the cost of constructing an index — or, in the
// build-once/query-many workflow, of loading it from a snapshot.
type BuildStats struct {
	IO       storage.Snapshot
	CPUTime  time.Duration
	Finished bool
	// FromSnapshot is set when the index was loaded from a persisted
	// snapshot (core.LoadIndexInstrumented) rather than built: CPUTime is
	// then the decode time and IO the snapshot read, the costs the paper's
	// answering-time vs. build-time tradeoff amortizes away.
	FromSnapshot bool
}

// TotalTime returns CPU time plus simulated I/O time on device d.
func (b BuildStats) TotalTime(d storage.DeviceProfile) time.Duration {
	return b.CPUTime + b.IO.IOTime(d)
}

// WorkloadStats aggregates the per-query stats of a query workload.
type WorkloadStats struct {
	Queries []QueryStats
}

// Total returns the summed stats across all queries.
func (w WorkloadStats) Total() QueryStats {
	var t QueryStats
	for _, q := range w.Queries {
		t.Add(q)
	}
	return t
}

// MeanPruningRatio returns the average pruning ratio across queries.
func (w WorkloadStats) MeanPruningRatio() float64 {
	if len(w.Queries) == 0 {
		return 0
	}
	var sum float64
	for _, q := range w.Queries {
		sum += q.PruningRatio()
	}
	return sum / float64(len(w.Queries))
}

// TotalTime returns the summed total time on device d.
func (w WorkloadStats) TotalTime(d storage.DeviceProfile) time.Duration {
	var t time.Duration
	for _, q := range w.Queries {
		t += q.TotalTime(d)
	}
	return t
}

// Extrapolate10K implements the paper's procedure for 10,000-query
// workloads: discard the best and worst five queries by total execution time
// and multiply the mean of the remaining queries by n (10,000 in the paper).
// It returns the extrapolated total time on device d. If fewer than 11
// queries ran, the plain mean is used.
func (w WorkloadStats) Extrapolate10K(d storage.DeviceProfile, n int) time.Duration {
	if len(w.Queries) == 0 {
		return 0
	}
	times := make([]time.Duration, len(w.Queries))
	for i, q := range w.Queries {
		times[i] = q.TotalTime(d)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	lo, hi := 0, len(times)
	if len(times) > 10 {
		lo, hi = 5, len(times)-5
	}
	var sum time.Duration
	for _, t := range times[lo:hi] {
		sum += t
	}
	mean := float64(sum) / float64(hi-lo)
	return time.Duration(mean * float64(n))
}

// TreeStats describes the structure of a tree-based index (the paper's
// footprint measures, Figure 8): node counts, sizes, fill factors and depth.
type TreeStats struct {
	TotalNodes int
	LeafNodes  int
	// MemBytes estimates the in-memory size of the index structure.
	MemBytes int64
	// DiskBytes estimates the on-disk size (summaries + materialized leaves).
	DiskBytes int64
	// FillFactors holds per-leaf occupancy in [0,1].
	FillFactors []float64
	// LeafDepths holds per-leaf depth (root = 0).
	LeafDepths []int
}

// MedianFill returns the median leaf fill factor.
func (t TreeStats) MedianFill() float64 {
	if len(t.FillFactors) == 0 {
		return 0
	}
	f := append([]float64(nil), t.FillFactors...)
	sort.Float64s(f)
	return f[len(f)/2]
}

// MeanFill returns the mean leaf fill factor.
func (t TreeStats) MeanFill() float64 {
	if len(t.FillFactors) == 0 {
		return 0
	}
	var sum float64
	for _, v := range t.FillFactors {
		sum += v
	}
	return sum / float64(len(t.FillFactors))
}

// MaxDepth returns the deepest leaf level.
func (t TreeStats) MaxDepth() int {
	max := 0
	for _, d := range t.LeafDepths {
		if d > max {
			max = d
		}
	}
	return max
}

// MeanDepth returns the average leaf depth.
func (t TreeStats) MeanDepth() float64 {
	if len(t.LeafDepths) == 0 {
		return 0
	}
	var sum float64
	for _, d := range t.LeafDepths {
		sum += float64(d)
	}
	return sum / float64(len(t.LeafDepths))
}
