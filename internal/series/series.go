// Package series provides the fundamental data series type and the
// Euclidean-distance kernels shared by every similarity search method in the
// suite, including the UCR-suite optimizations (squared distances, early
// abandoning, and reordered early abandoning) that the paper applies to all
// evaluated methods.
//
// # Aliasing contract
//
// A Series is a slice header, and throughout the suite it is usually a view
// into shared backing memory rather than an owned allocation: collections
// keep all their series back-to-back in one flat arena
// (internal/storage.SeriesFile) and every Read/Peek hands out a subslice of
// it. The rules that make this safe:
//
//   - Series obtained from a collection, file, or shard are read-only
//     views. Mutating one (including ZNormalize, which works in place)
//     corrupts the shared arena for every other reader. Clone first.
//   - Views are capped (cap == len), so append on a view reallocates
//     instead of bleeding into the neighboring series.
//   - A view stays valid as long as the collection it came from; it never
//     needs copying for lifetime reasons, only for mutation.
//
// Kernels in this package never mutate their arguments, so views can be
// passed to them freely.
package series

import (
	"fmt"
	"math"

	"hydra/internal/simd"
)

// Series is a univariate data series stored in single precision, matching the
// paper's experimental setup ("All methods use single precision values").
// Distance accumulation is always done in float64.
type Series []float32

// Clone returns an independent copy of s.
func (s Series) Clone() Series {
	c := make(Series, len(s))
	copy(c, s)
	return c
}

// Mean returns the arithmetic mean of s. The mean of an empty series is 0.
func (s Series) Mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s {
		sum += float64(v)
	}
	return sum / float64(len(s))
}

// Std returns the population standard deviation of s.
func (s Series) Std() float64 {
	if len(s) == 0 {
		return 0
	}
	m := s.Mean()
	var sum float64
	for _, v := range s {
		d := float64(v) - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(s)))
}

// ZNormalize Z-normalizes s in place (mean 0, standard deviation 1) and
// returns s. Constant series (std below epsilon) are set to all zeros, the
// convention used by the UCR suite.
func (s Series) ZNormalize() Series {
	const eps = 1e-8
	m := s.Mean()
	sd := s.Std()
	if sd < eps {
		for i := range s {
			s[i] = 0
		}
		return s
	}
	inv := 1.0 / sd
	for i := range s {
		s[i] = float32((float64(s[i]) - m) * inv)
	}
	return s
}

// IsZNormalized reports whether s has mean≈0 and std≈1 (or is all zeros)
// within tolerance tol.
func (s Series) IsZNormalized(tol float64) bool {
	m := s.Mean()
	sd := s.Std()
	if math.Abs(m) > tol {
		return false
	}
	return math.Abs(sd-1) <= tol || sd <= tol
}

// SquaredDist returns the squared Euclidean distance between q and c.
// It panics if the lengths differ: whole matching requires |q| == |c|
// (Definition 3 in the paper). The accumulation runs on the dispatched
// kernel layer (internal/simd): results are bit-identical across machines,
// and within reassociation error (≪1e-9 relatively) of a sequential loop.
func SquaredDist(q, c Series) float64 {
	if len(q) != len(c) {
		panic(fmt.Sprintf("series: squared distance of mismatched lengths %d and %d", len(q), len(c)))
	}
	return simd.SquaredDist(q, c)
}

// Dist returns the Euclidean distance between q and c.
func Dist(q, c Series) float64 {
	return math.Sqrt(SquaredDist(q, c))
}

// SquaredDistEA computes the squared Euclidean distance between q and c with
// early abandoning: as soon as the partial sum exceeds bound, it returns a
// value > bound (the partial sum) without finishing the computation. This is
// UCR-suite optimization (b).
func SquaredDistEA(q, c Series, bound float64) float64 {
	if len(q) != len(c) {
		panic(fmt.Sprintf("series: squared distance of mismatched lengths %d and %d", len(q), len(c)))
	}
	var sum float64
	for i := range q {
		d := float64(q[i]) - float64(c[i])
		sum += d * d
		if sum > bound {
			return sum
		}
	}
	return sum
}

// Order is a query-specific evaluation order for reordered early abandoning
// (UCR-suite optimization (c)): on Z-normalized data the parts of the query
// with the largest values are the most likely to contribute large distance
// terms, so visiting them first abandons sooner. The order is block-granular:
// it permutes the query's whole simd.BlockLen-element blocks — one cache line
// of the aligned arena each — by decreasing block energy Σq², ties by
// position, and keeps the len%BlockLen tail sequential at the end, so the
// kernel streams every block it visits with contiguous loads.
//
// Only NewOrder and OrderBuilder.Build make a non-empty Order; the fields are
// unexported so that "every block start is a multiple of BlockLen and the
// block lies inside the series" holds by construction for whatever reaches
// the kernels. The zero Order is the sequential order of an empty series.
type Order struct {
	starts []int // first element of each whole block, in visiting order
	n      int   // length of the series the order was built for
}

// Len returns the length of the series the order was built for.
func (o Order) Len() int { return o.n }

// At returns the position visited at step i of the order, for i in
// [0, Len()): the steps of one block are consecutive and ascending.
func (o Order) At(i int) int {
	if b := i / simd.BlockLen; b < len(o.starts) {
		return o.starts[b] + i%simd.BlockLen
	}
	return i
}

// NewOrder builds the reordered-early-abandoning order for query q. The
// order owns its memory; query paths that answer many queries reuse one
// OrderBuilder instead.
func NewOrder(q Series) Order {
	var b OrderBuilder
	return b.Build(q)
}

// OrderBuilder builds reordered-early-abandoning orders without allocating
// after its buffers have grown once: the zero value is ready to use, and
// each Build overwrites the previous order. Query paths that answer many
// queries keep one per scratch (core.Scratch) to strike per-query
// allocations.
//
// An OrderBuilder is not safe for concurrent use; the Order it returns is
// only valid until the next Build.
type OrderBuilder struct {
	starts []int
	energy []float64 // Σq² per block, parallel to starts: the sort key
}

// Build fills the builder's order for query q and returns it.
func (b *OrderBuilder) Build(q Series) Order {
	nb := len(q) / simd.BlockLen
	if cap(b.starts) < nb {
		b.starts = make([]int, nb)
		b.energy = make([]float64, nb)
	}
	starts, energy := b.starts[:nb], b.energy[:nb]
	// Insertion sort as the blocks are scanned in position order: a block
	// moves ahead of strictly smaller energies only, so ties keep position
	// order. A series has few blocks (16 at length 256).
	for k := range starts {
		start := k * simd.BlockLen
		e := SumSquares(q[start : start+simd.BlockLen])
		j := k
		for ; j > 0 && energy[j-1] < e; j-- {
			starts[j], energy[j] = starts[j-1], energy[j-1]
		}
		starts[j], energy[j] = start, e
	}
	return Order{starts: starts, n: len(q)}
}

// SquaredDistEAOrdered computes the squared distance with early abandoning
// tested after every element, visiting coordinates in the given order — the
// scalar reference of SquaredDistEAOrderedBlocked. It panics unless q, c and
// the series ord was built for have one length.
func SquaredDistEAOrdered(q, c Series, ord Order, bound float64) float64 {
	checkOrdered(q, c, ord)
	var sum float64
	for k := range q {
		i := ord.At(k)
		d := float64(q[i]) - float64(c[i])
		sum += d * d
		if sum > bound {
			return sum
		}
	}
	return sum
}

// checkOrdered panics unless q, c and the series ord was built for have one
// length.
func checkOrdered(q, c Series, ord Order) {
	if len(q) != len(c) || len(q) != ord.n {
		panicOrdered(len(q), len(c), ord.n)
	}
}

// panicOrdered is split from checkOrdered so that the check inlines into the
// kernels' wrappers.
//
//go:noinline
func panicOrdered(q, c, ord int) {
	panic(fmt.Sprintf("series: squared distance of mismatched lengths %d and %d under an order for length %d", q, c, ord))
}

// SumSquares returns the energy (sum of squared values) of s.
func SumSquares(s Series) float64 {
	var sum float64
	for _, v := range s {
		sum += float64(v) * float64(v)
	}
	return sum
}
