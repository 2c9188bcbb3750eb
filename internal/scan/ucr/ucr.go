// Package ucr implements the UCR Suite baseline (Rakthanmanon et al.),
// adapted — exactly as in the paper — from subsequence matching to exact
// whole matching: an optimized sequential scan applying (a) squared
// distances (no square root), (b) early abandoning of the Euclidean distance
// computation, and (c) reordered early abandoning on Z-normalized data.
// Early abandoning of Z-normalization does not apply because all datasets
// are normalized in advance (§4.2).
//
// The scan loop is core.ScanRows, shared with every worker of the parallel
// scan and with the stream: it hands the run kernel (series.ScanRun)
// core.CancelBlock consecutive rows of the arena at a time, with the query
// widened to float64 once per query, and the kernel returns only at a row
// within the k-th best distance. A candidate therefore costs no Go call,
// only the blocks the kernel sums before it abandons; the answer, and every
// counter, is the one a call per candidate gave.
package ucr

import (
	"context"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
)

func init() {
	core.Register("UCR-Suite", func(opts core.Options) core.Method { return New(opts) })
}

// Scan is the UCR-suite whole-matching scan.
type Scan struct {
	c *core.Collection
	// workers is the intra-query parallelism degree (core.Options.Workers):
	// 0 or 1 scans serially, >1 fans out over that many shards, negative
	// uses GOMAXPROCS. Parallel answers are bit-identical to serial ones
	// (see core.ParallelScanKNN).
	workers int
	// pool hands each in-flight query its reusable scratch buffers. The
	// serial scan is the suite's steady-state allocation benchmark: with
	// pooled scratch it performs one heap allocation per query (the
	// returned matches), enforced by TestQueryAllocBudget.
	pool core.ScratchPool
}

// New creates the scan method. The only honored option is Workers; the scan
// has no other parameters.
func New(opts core.Options) *Scan { return &Scan{workers: opts.Workers} }

// Name implements core.Method.
func (s *Scan) Name() string { return "UCR-Suite" }

// Build implements core.Method. A sequential scan needs no preparation.
func (s *Scan) Build(c *core.Collection) error {
	s.c = c
	return nil
}

// Insert implements core.Ingester as a no-op: the scan reads the file's
// live length at the start of every query, so appended series join the next
// pass automatically.
func (s *Scan) Insert(ids []int) error { return nil }

// KNN implements core.Method: one full sequential pass with reordered early
// abandoning against the running k-th best distance. With Workers set, the
// pass is fanned out over scan shards sharing a best-so-far bound; the
// answer stays bit-identical to the serial scan. The context is polled once
// per core.CancelBlock candidates.
func (s *Scan) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if s.c == nil {
		return nil, qs, fmt.Errorf("ucr: method not built")
	}
	if len(q) != s.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("ucr: query length %d, collection length %d", len(q), s.c.File.SeriesLen())
	}
	if s.workers > 1 || s.workers < 0 {
		return core.ParallelScanKNN(ctx, s.c, q, k, s.workers)
	}
	sc := s.pool.Get()
	defer s.pool.Put(sc)
	set := sc.KNN(k)
	cur := s.c.File.Cursor()
	err := core.ScanRows(ctx, &cur, sc.Wide(q), sc.Order(q), set, nil, nil, &qs)
	qs.IO = cur.Flush()
	if err != nil {
		return nil, qs, err
	}
	return set.Results(), qs, nil
}

// KNNStream implements the anytime scan consumed by the public package's
// QueryStream: it answers exactly like KNN while reporting every candidate
// that tightens the scan's best-so-far bound through emit. The stream always
// runs on the sharded engine (one shard when Workers is unset) because the
// shared-bound machinery is what generates the progress signal; final
// answers are bit-identical to KNN either way.
func (s *Scan) KNNStream(ctx context.Context, q series.Series, k int, emit func(core.Match)) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if s.c == nil {
		return nil, qs, fmt.Errorf("ucr: method not built")
	}
	workers := s.workers
	if workers == 0 {
		workers = 1
	}
	return core.ScanKNNStream(ctx, s.c, q, k, workers, emit)
}
