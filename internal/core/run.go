package core

import (
	"context"
	"time"

	"hydra/internal/dataset"
	"hydra/internal/faultpoint"
	"hydra/internal/series"
	"hydra/internal/stats"
)

// BuildInstrumented builds the method over the collection, measuring CPU
// time and attributing the simulated I/O delta to the build.
func BuildInstrumented(m Method, c *Collection) (stats.BuildStats, error) {
	before := c.Counters.Snapshot()
	start := time.Now()
	err := m.Build(c)
	bs := stats.BuildStats{
		CPUTime:  time.Since(start),
		IO:       c.Counters.Snapshot().Sub(before),
		Finished: err == nil,
	}
	return bs, err
}

// RunQuery answers one query with full instrumentation: the method's own
// counters, its I/O record included, plus the wall time around the call.
// The method flushes that record to the collection's Counters itself, so
// concurrent queries never see one another's reads. The context is
// passed through to the method's KNN and honored under its block-granular
// cancellation contract.
func RunQuery(ctx context.Context, m Method, c *Collection, q series.Series, k int) ([]Match, stats.QueryStats, error) {
	// The query/panic failpoint fires above every per-worker recovery, so
	// it drills exactly the per-query isolation layers: QueryBatch's
	// recover and the serve handlers' recovery middleware.
	faultpoint.MaybePanic(faultpoint.QueryPanic)
	start := time.Now()
	matches, qs, err := m.KNN(ctx, q, k)
	finishQueryStats(c, start, &qs)
	return matches, qs, err
}

// finishQueryStats is the one attribution rule every instrumented query
// shares (plain, approximate and streaming): wall time and the collection
// size land on the stats record the same way, so streamed queries never
// report different cost accounting than plain ones. It is a plain function
// (no closure) so the hot RunQuery path stays allocation-free.
func finishQueryStats(c *Collection, start time.Time, qs *stats.QueryStats) {
	qs.CPUTime = time.Since(start)
	qs.DatasetSize = int64(c.File.Len())
}

// KNNStreamer is implemented by methods whose exact query can report
// progress: emit is called (possibly from several goroutines) for
// candidates that improve the query's best-so-far while it runs, and the
// return value is the exact answer, bit-identical to KNN. The scan methods
// implement it over their shared-bound machinery; the public package's
// QueryStream consumes it.
type KNNStreamer interface {
	Method
	KNNStream(ctx context.Context, q series.Series, k int, emit func(Match)) ([]Match, stats.QueryStats, error)
}

// RunQueryStream is RunQuery for streaming methods: same instrumentation,
// with progress callbacks passed through.
func RunQueryStream(ctx context.Context, m KNNStreamer, c *Collection, q series.Series, k int, emit func(Match)) ([]Match, stats.QueryStats, error) {
	start := time.Now()
	matches, qs, err := m.KNNStream(ctx, q, k, emit)
	finishQueryStats(c, start, &qs)
	return matches, qs, err
}

// RunWorkload answers every query of the workload and collects per-query
// stats. It stops at the first error (a context cancel surfaces as the
// in-flight query's error).
func RunWorkload(ctx context.Context, m Method, c *Collection, w *dataset.Workload, k int) (stats.WorkloadStats, error) {
	var ws stats.WorkloadStats
	ws.Queries = make([]stats.QueryStats, 0, len(w.Queries))
	for _, q := range w.Queries {
		_, qs, err := RunQuery(ctx, m, c, q, k)
		if err != nil {
			return ws, err
		}
		ws.Queries = append(ws.Queries, qs)
	}
	return ws, nil
}
