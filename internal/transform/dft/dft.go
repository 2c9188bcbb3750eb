// Package dft extracts scaled Fourier features from data series.
//
// The scaling is chosen so that the Euclidean distance between two feature
// vectors lower-bounds the Euclidean distance between the original series
// (the property every index in the suite relies on, per Faloutsos et al.):
// with the unnormalized DFT X_k = Σ_j x_j e^(−2πijk/n), Parseval gives
// ED²(x,y) = (1/n)·Σ_k |X_k−Y_k|², and for real series the spectrum is
// symmetric, so each retained coefficient 0 < k < n/2 accounts for a 2/n
// share. The DC coefficient is dropped: datasets are Z-normalized in this
// study, so it is ~0, and dropping dimensions can only lower the bound.
//
// Both SFA and the (DFT-modified) VA+file build on these features.
//
// A Transform is immutable after New and safe for concurrent use: it owns no
// workspace. ApplyInto runs in buffers the caller brings — a build loop
// reuses one for the whole collection, a query takes its pooled core.Scratch
// — and, features being the first few coefficients only, asks package fft
// for just that prefix of the spectrum (one pruned, table-driven transform
// per series, no allocation on power-of-two lengths).
package dft

import (
	"math"

	"hydra/internal/series"
	"hydra/internal/transform/fft"
)

// Transform maps length-n series to numDims real Fourier features.
type Transform struct {
	n    int
	dims int
}

// New creates a transform from length-n series to dims real features
// (dims/2 complex coefficients, starting at k=1). dims is capped at the
// number of meaningful real dimensions, n-1 (n-2 for even n plus Nyquist).
func New(n, dims int) *Transform {
	if n <= 0 {
		panic("dft: series length must be positive")
	}
	max := n - 1
	if dims > max {
		dims = max
	}
	if dims < 1 {
		dims = 1
	}
	return &Transform{n: n, dims: dims}
}

// Dims returns the number of real feature dimensions produced.
func (t *Transform) Dims() int { return t.dims }

// SeriesLen returns the expected input length.
func (t *Transform) SeriesLen() int { return t.n }

// Apply returns the scaled feature vector of s in a new slice.
func (t *Transform) Apply(s series.Series) []float64 {
	return t.ApplyInto(s, make([]float64, t.dims), make([]complex128, t.n))
}

// ApplyInto writes the scaled feature vector of s to out[:Dims()] and
// returns it, using buf (at least SeriesLen() long, contents overwritten) as
// the transform's workspace.
func (t *Transform) ApplyInto(s series.Series, out []float64, buf []complex128) []float64 {
	if len(s) != t.n {
		panic("dft: series length mismatch")
	}
	X := buf[:t.n]
	for i, v := range s {
		X[i] = complex(float64(v), 0)
	}
	// Feature d reads coefficient k = d/2+1 (DC is skipped), so the last
	// one wanted is (dims-1)/2+1.
	fft.Forward(X, (t.dims-1)/2+2)
	// Nyquist (k == n/2 for even n) appears once in Parseval's sum; all
	// other non-DC coefficients appear twice (conjugate symmetry).
	twice, once := math.Sqrt(2/float64(t.n)), math.Sqrt(1/float64(t.n))
	out = out[:t.dims]
	for d := range out {
		k := d/2 + 1
		raw := real(X[k])
		if d%2 == 1 {
			raw = imag(X[k])
		}
		scale := twice
		if 2*k == t.n {
			scale = once
		}
		out[d] = raw * scale
	}
	return out
}

// LowerBound returns the squared Euclidean distance between two feature
// vectors, which lower-bounds the squared Euclidean distance between the
// originating series.
func LowerBound(a, b []float64) float64 {
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}
