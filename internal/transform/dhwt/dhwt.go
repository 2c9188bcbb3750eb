// Package dhwt implements the orthonormal Discrete Haar Wavelet Transform
// used by the Stepwise method (Kashyap & Karras). The orthonormal
// normalization preserves Euclidean distances exactly, so prefixes of the
// coefficient vector yield lower bounds and per-level residual energies yield
// upper bounds — the two bounds Stepwise filters with.
//
// Non-power-of-two series are zero-padded; because both query and candidates
// are padded identically, all pairwise distances are unchanged.
package dhwt

import (
	"math"

	"hydra/internal/mathx"
	"hydra/internal/series"
)

// Transform returns the orthonormal Haar coefficients of s, zero-padded to
// the next power of two. The layout is: [0] the approximation (scaled mean),
// then detail coefficients from the coarsest level (1 value) to the finest
// (n/2 values). Euclidean distance between two transformed vectors equals
// the distance between the (padded) originals.
func Transform(s series.Series) []float64 {
	n := mathx.NextPow2(len(s))
	cur := make([]float64, n)
	for i, v := range s {
		cur[i] = float64(v)
	}
	out := make([]float64, n)
	// Repeatedly split cur into averages and details (both scaled by 1/√2).
	details := make([][]float64, 0, 32)
	for len(cur) > 1 {
		half := len(cur) / 2
		avg := make([]float64, half)
		det := make([]float64, half)
		for i := 0; i < half; i++ {
			a, b := cur[2*i], cur[2*i+1]
			avg[i] = (a + b) / math.Sqrt2
			det[i] = (a - b) / math.Sqrt2
		}
		details = append(details, det)
		cur = avg
	}
	out[0] = cur[0]
	pos := 1
	// Coarsest detail level was appended last.
	for lvl := len(details) - 1; lvl >= 0; lvl-- {
		pos += copy(out[pos:], details[lvl])
	}
	return out
}

// Levels returns the number of resolution levels for padded length n
// (level 0 holds 1 coefficient, level i>0 holds 2^(i-1) coefficients).
func Levels(n int) int {
	p := mathx.NextPow2(n)
	lv := 1
	for p > 1 {
		lv++
		p >>= 1
	}
	return lv
}

// LevelRange returns the coefficient index range [lo,hi) of level lvl in the
// layout produced by Transform.
func LevelRange(lvl int) (lo, hi int) {
	if lvl == 0 {
		return 0, 1
	}
	lo = 1 << (lvl - 1)
	return lo, lo * 2
}
