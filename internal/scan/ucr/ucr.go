// Package ucr implements the UCR Suite baseline (Rakthanmanon et al.),
// adapted — exactly as in the paper — from subsequence matching to exact
// whole matching: an optimized sequential scan applying (a) squared
// distances (no square root), (b) early abandoning of the Euclidean distance
// computation, and (c) reordered early abandoning on Z-normalized data.
// Early abandoning of Z-normalization does not apply because all datasets
// are normalized in advance (§4.2).
//
// The scan is core.ScanKNN, one claim loop for the serial pass, the
// parallel one and the stream: the calling goroutine and, on idle cores,
// helpers claim core.CancelBlock-row chunks of the arena, and the run kernel
// (series.ScanRun) walks a chunk with the query widened to float64 once per
// query, returning only at a row within the k-th best distance. The answer,
// and every counter, is the serial pass's for every split.
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
	// workers caps the goroutines one query's scan uses
	// (core.Options.Workers): 0 or less uses every core, 1 is the paper's
	// serial pass. Answers and counters are the same for every cap (see
	// core.ScanKNN).
	workers int
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
// abandoning against the running k-th best distance, spread over the idle
// cores up to the Workers cap. The context is polled once per
// core.CancelBlock candidates.
func (s *Scan) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	return s.KNNStream(ctx, q, k, nil)
}

// KNNStream implements the anytime scan consumed by the public package's
// QueryStream: it answers exactly like KNN while reporting every candidate
// that tightens the scan's best-so-far bound through emit.
func (s *Scan) KNNStream(ctx context.Context, q series.Series, k int, emit func(core.Match)) ([]core.Match, stats.QueryStats, error) {
	if s.c == nil {
		return nil, stats.QueryStats{}, fmt.Errorf("ucr: method not built")
	}
	return core.ScanKNN(ctx, s.c, q, k, s.workers, emit)
}
