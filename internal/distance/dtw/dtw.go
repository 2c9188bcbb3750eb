// Package dtw implements Dynamic Time Warping under a Sakoe-Chiba band,
// with the UCR-suite machinery for exact DTW similarity search: warping
// envelopes, the LB_Keogh lower bound, and early-abandoning DP.
//
// The paper scopes its evaluation to Euclidean distance but notes that "some
// of the insights gained by this study could carry over to other settings,
// such as ... dynamic time warping distance"; this package provides that
// setting on the same collections (see scan/ucrdtw for the search method).
package dtw

import (
	"fmt"
	"math"

	"hydra/internal/series"
)

// SquaredDist returns the squared DTW distance between equal-length series a
// and b under a Sakoe-Chiba band of half-width w: the minimum over warping
// paths of the sum of squared point differences. w == 0 degenerates to the
// squared Euclidean distance; w >= len(a)-1 is unconstrained DTW.
func SquaredDist(a, b series.Series, w int) float64 {
	return SquaredDistEA(a, b, w, math.Inf(1))
}

// Dist returns the DTW distance (the square root of SquaredDist).
func Dist(a, b series.Series, w int) float64 {
	return math.Sqrt(SquaredDist(a, b, w))
}

// SquaredDistEA computes the squared DTW distance with early abandoning: if
// every cell of some DP row exceeds bound, a value > bound is returned
// without completing the computation (the UCR-suite DTW optimization).
func SquaredDistEA(a, b series.Series, w int, bound float64) float64 {
	n := len(a)
	if len(b) != n {
		panic(fmt.Sprintf("dtw: mismatched lengths %d and %d", len(a), len(b)))
	}
	if n == 0 {
		return 0
	}
	if w < 0 {
		w = 0
	}
	if w > n-1 {
		w = n - 1
	}

	inf := math.Inf(1)
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = inf
	}

	for i := 0; i < n; i++ {
		lo := i - w
		if lo < 0 {
			lo = 0
		}
		hi := i + w
		if hi > n-1 {
			hi = n - 1
		}
		for j := 0; j < n; j++ {
			cur[j] = inf
		}
		rowMin := inf
		for j := lo; j <= hi; j++ {
			d := float64(a[i]) - float64(b[j])
			cost := d * d
			best := inf
			if i == 0 && j == 0 {
				best = 0
			} else {
				if j > 0 && cur[j-1] < best {
					best = cur[j-1] // horizontal
				}
				if i > 0 {
					if prev[j] < best {
						best = prev[j] // vertical
					}
					if j > 0 && prev[j-1] < best {
						best = prev[j-1] // diagonal
					}
				}
			}
			cur[j] = best + cost
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > bound {
			return rowMin
		}
		prev, cur = cur, prev
	}
	return prev[n-1]
}

// Envelope holds the warping envelope of a query: U[i] = max(q[i-w..i+w]),
// L[i] = min(q[i-w..i+w]). Any series c warped within the band satisfies
// LBKeogh(env, c) ≤ SquaredDTW(q, c).
type Envelope struct {
	U, L []float64
	W    int
}

// NewEnvelope computes the envelope of q for band half-width w using
// monotonic deques (O(n)).
func NewEnvelope(q series.Series, w int) Envelope {
	n := len(q)
	if w < 0 {
		w = 0
	}
	if w > n-1 && n > 0 {
		w = n - 1
	}
	env := Envelope{U: make([]float64, n), L: make([]float64, n), W: w}
	// Sliding window of width 2w+1 centered on i: [i-w, i+w].
	maxDQ := make([]int, 0, n)
	minDQ := make([]int, 0, n)
	push := func(j int) {
		v := float64(q[j])
		for len(maxDQ) > 0 && float64(q[maxDQ[len(maxDQ)-1]]) <= v {
			maxDQ = maxDQ[:len(maxDQ)-1]
		}
		maxDQ = append(maxDQ, j)
		for len(minDQ) > 0 && float64(q[minDQ[len(minDQ)-1]]) >= v {
			minDQ = minDQ[:len(minDQ)-1]
		}
		minDQ = append(minDQ, j)
	}
	for j := 0; j < w && j < n; j++ {
		push(j)
	}
	for i := 0; i < n; i++ {
		if i+w < n {
			push(i + w)
		}
		for len(maxDQ) > 0 && maxDQ[0] < i-w {
			maxDQ = maxDQ[1:]
		}
		for len(minDQ) > 0 && minDQ[0] < i-w {
			minDQ = minDQ[1:]
		}
		env.U[i] = float64(q[maxDQ[0]])
		env.L[i] = float64(q[minDQ[0]])
	}
	return env
}

// LBKeogh returns the squared LB_Keogh lower bound of the DTW distance
// between the enveloped query and candidate c: points of c above U or below
// L contribute their squared excursion.
func LBKeogh(env Envelope, c series.Series) float64 {
	if len(c) != len(env.U) {
		panic(fmt.Sprintf("dtw: candidate length %d, envelope length %d", len(c), len(env.U)))
	}
	var sum float64
	for i, v64 := range c {
		v := float64(v64)
		switch {
		case v > env.U[i]:
			d := v - env.U[i]
			sum += d * d
		case v < env.L[i]:
			d := env.L[i] - v
			sum += d * d
		}
	}
	return sum
}

// LBKeoghEA is LBKeogh with early abandoning at bound, visiting coordinates
// in the given order (reordered early abandoning, as the UCR suite does).
// ord must have been built for a series of c's length.
func LBKeoghEA(env Envelope, c series.Series, ord series.Order, bound float64) float64 {
	if ord.Len() != len(c) {
		panic(fmt.Sprintf("dtw: candidate length %d, order length %d", len(c), ord.Len()))
	}
	var sum float64
	for k := range c {
		i := ord.At(k)
		v := float64(c[i])
		switch {
		case v > env.U[i]:
			d := v - env.U[i]
			sum += d * d
		case v < env.L[i]:
			d := env.L[i] - v
			sum += d * d
		}
		if sum > bound {
			return sum
		}
	}
	return sum
}
