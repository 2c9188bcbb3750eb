// Package eapca implements the Extended Adaptive Piecewise Constant
// Approximation of Wang et al., the summarization behind the DSTree: each
// segment of a (node-specific, dynamic) segmentation is described by its
// mean and standard deviation.
//
// The key inequalities (reverse triangle inequality within each segment of
// width w) are:
//
//	ED²_seg(x,y) ≥ w·(μx−μy)² + w·(σx−σy)²   (lower bound)
//	ED²_seg(x,y) ≤ w·(μx−μy)² + w·(σx+σy)²   (upper bound)
//
// which the DSTree uses for pruning and for choosing split policies.
package eapca

import (
	"math"

	"hydra/internal/series"
)

// Prefix holds prefix sums of a series and its squares, so the mean and
// standard deviation of any segment can be computed in O(1). The DSTree
// recomputes synopses for evolving segmentations, making this the central
// data structure of its build path.
type Prefix struct {
	S  []float64 // S[i] = sum of first i values
	S2 []float64 // S2[i] = sum of squares of first i values
}

// NewPrefix builds prefix sums for s.
func NewPrefix(s series.Series) Prefix {
	return NewPrefixInto(s, make([]float64, 2*(len(s)+1)))
}

// NewPrefixInto builds prefix sums for s inside buf, which must have length
// 2*(len(s)+1) — the allocation-free variant for pooled query scratch. The
// two halves of buf become the S and S2 arrays.
func NewPrefixInto(s series.Series, buf []float64) Prefix {
	n := len(s) + 1
	p := Prefix{S: buf[:n:n], S2: buf[n : 2*n : 2*n]}
	p.S[0], p.S2[0] = 0, 0
	for i, v := range s {
		f := float64(v)
		p.S[i+1] = p.S[i] + f
		p.S2[i+1] = p.S2[i] + f*f
	}
	return p
}

// MeanStd returns the mean and population standard deviation of s[lo:hi].
func (p Prefix) MeanStd(lo, hi int) (mean, std float64) {
	w := float64(hi - lo)
	if w <= 0 {
		return 0, 0
	}
	sum := p.S[hi] - p.S[lo]
	sum2 := p.S2[hi] - p.S2[lo]
	mean = sum / w
	v := sum2/w - mean*mean
	if v < 0 {
		v = 0 // numerical guard
	}
	return mean, math.Sqrt(v)
}

// Synopsis is the EAPCA of one series under a given segmentation.
type Synopsis struct {
	Mean []float64
	Std  []float64
}

// Compute returns the EAPCA of the series with prefix sums p under the
// segmentation given by exclusive segment end offsets.
func Compute(p Prefix, ends []int) Synopsis {
	return ComputeInto(p, ends, make([]float64, 2*len(ends)))
}

// ComputeInto is Compute inside buf, which must have length at least
// 2*len(ends) — the allocation-free variant for the DSTree's build scratch.
// The two halves of buf become the Mean and Std arrays.
func ComputeInto(p Prefix, ends []int, buf []float64) Synopsis {
	k := len(ends)
	syn := Synopsis{Mean: buf[:k:k], Std: buf[k : 2*k : 2*k]}
	lo := 0
	for i, hi := range ends {
		syn.Mean[i], syn.Std[i] = p.MeanStd(lo, hi)
		lo = hi
	}
	return syn
}
