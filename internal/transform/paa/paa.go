// Package paa implements Piecewise Aggregate Approximation (Keogh et al.):
// a series is divided into segments and each segment is represented by its
// mean. PAA summaries underpin SAX/iSAX (and the R*-tree configuration used
// in the paper, which was modified to index PAA summaries).
package paa

import "hydra/internal/series"

// Transform maps length-n series to their seg-segment PAA representation.
// When n is not divisible by seg, segment widths differ by at most one point,
// and the lower bound weighs each segment by its width.
type Transform struct {
	n      int
	ends   []int // ends[i] is the exclusive end of segment i; ends[len-1]==n
	widths []float64
}

// New creates a PAA transform from length n to seg segments (seg is capped
// at n).
func New(n, seg int) *Transform {
	if n <= 0 {
		panic("paa: series length must be positive")
	}
	if seg > n {
		seg = n
	}
	if seg < 1 {
		seg = 1
	}
	t := &Transform{n: n, ends: make([]int, seg), widths: make([]float64, seg)}
	prev := 0
	for i := 0; i < seg; i++ {
		end := (i + 1) * n / seg
		t.ends[i] = end
		t.widths[i] = float64(end - prev)
		prev = end
	}
	return t
}

// Segments returns the number of segments.
func (t *Transform) Segments() int { return len(t.ends) }

// SeriesLen returns the expected input length.
func (t *Transform) SeriesLen() int { return t.n }

// Widths returns the per-segment widths (number of points).
func (t *Transform) Widths() []float64 { return t.widths }

// Apply returns the PAA representation of s.
func (t *Transform) Apply(s series.Series) []float64 {
	return t.ApplyInto(s, make([]float64, len(t.ends)))
}

// ApplyInto computes the PAA representation of s into out (length
// Segments()) and returns it — the allocation-free variant for pooled
// query scratch.
func (t *Transform) ApplyInto(s series.Series, out []float64) []float64 {
	if len(s) != t.n {
		panic("paa: series length mismatch")
	}
	if len(out) != len(t.ends) {
		panic("paa: output length mismatch")
	}
	lo := 0
	for i, hi := range t.ends {
		var sum float64
		for j := lo; j < hi; j++ {
			sum += float64(s[j])
		}
		out[i] = sum / float64(hi-lo)
		lo = hi
	}
	return out
}

// LowerBound returns the squared lower-bounding distance between two PAA
// vectors: Σ_i w_i·(a_i − b_i)² ≤ ED²(x, y) (by Cauchy–Schwarz within each
// segment).
func (t *Transform) LowerBound(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += t.widths[i] * d * d
	}
	return sum
}

// LowerBoundToRect returns the squared lower-bounding distance from PAA
// vector q to the axis-aligned rectangle [lo_i, hi_i] in PAA space (the
// R*-tree MINDIST, scaled by segment widths).
func (t *Transform) LowerBoundToRect(q, lo, hi []float64) float64 {
	var sum float64
	for i := range q {
		var d float64
		switch {
		case q[i] < lo[i]:
			d = lo[i] - q[i]
		case q[i] > hi[i]:
			d = q[i] - hi[i]
		}
		sum += t.widths[i] * d * d
	}
	return sum
}
