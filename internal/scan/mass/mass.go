// Package mass implements MASS (Mueen's Algorithm for Similarity Search),
// adapted — as in the paper — from exact subsequence matching to exact whole
// matching: distances are computed from dot products obtained by convolving
// the (reversed) query against the data with the FFT,
// d²(q,c) = ‖q‖² + ‖c‖² − 2·q·c.
//
// Candidates are processed in chunks that are concatenated and convolved in
// one FFT pass, preserving MASS's profile of sequential I/O and very high
// CPU cost (Fourier transforms dominate, as observed in the paper's Fig. 3d).
package mass

import (
	"context"
	"fmt"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/transform/fft"
)

func init() {
	core.Register("MASS", func(opts core.Options) core.Method { return New(opts) })
}

// Scan is the MASS whole-matching method.
type Scan struct {
	c *core.Collection
}

// New creates the method (no parameters).
func New(core.Options) *Scan { return &Scan{} }

// Name implements core.Method.
func (s *Scan) Name() string { return "MASS" }

// Build implements core.Method. MASS needs no preprocessing of the
// collection (the paper's variant computes transforms at query time).
func (s *Scan) Build(c *core.Collection) error {
	s.c = c
	return nil
}

// KNN implements core.Method. The context is polled between convolution
// chunks — MASS's natural block: each chunk is one FFT pass over at most 64
// candidates, so a cancel is honored within one transform.
func (s *Scan) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if s.c == nil {
		return nil, qs, fmt.Errorf("mass: method not built")
	}
	f := s.c.File
	n := f.SeriesLen()
	if len(q) != n {
		return nil, qs, fmt.Errorf("mass: query length %d, collection length %d", len(q), n)
	}

	qf := make([]float64, n)
	var qEnergy float64
	for i, v := range q {
		qf[i] = float64(v)
		qEnergy += qf[i] * qf[i]
	}

	// Chunk several candidates into one convolution to amortize FFT cost.
	chunk := 8192 / n
	if chunk < 1 {
		chunk = 1
	}
	if chunk > 64 {
		chunk = 64
	}

	set := core.NewKNNSet(k)
	cur := f.Cursor()
	for lo := 0; lo < cur.Len(); lo += chunk {
		if err := core.Canceled(ctx); err != nil {
			qs.IO = cur.Flush()
			return nil, qs, err
		}
		hi := min(lo+chunk, cur.Len())
		// The flat arena view streams the block without materializing
		// per-series slice headers; its values are series lo..hi-1
		// back-to-back, exactly the widened layout Convolve wants.
		block := cur.Range(lo, hi)
		x := make([]float64, (hi-lo)*n)
		for i, v := range block {
			x[i] = float64(v)
		}
		dots := fft.Convolve(x, qf)
		for j := 0; j < hi-lo; j++ {
			var cEnergy float64
			for _, v := range x[j*n : (j+1)*n] {
				cEnergy += v * v
			}
			dot := dots[j*n+n-1]
			d := qEnergy + cEnergy - 2*dot
			if d < 0 {
				d = 0
			}
			qs.DistCalcs++
			qs.RawSeriesExamined++
			set.Add(lo+j, d)
		}
	}

	// Recompute the winners' distances directly so reported distances are
	// exact (the convolution carries ~1e-12 relative FFT rounding).
	matches := set.Results()
	for i := range matches {
		matches[i].Dist = series.Dist(q, cur.Peek(matches[i].ID))
	}
	qs.IO = cur.Flush()
	return matches, qs, nil
}
