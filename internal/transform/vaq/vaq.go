// Package vaq implements the VA+ scalar quantizer (Ferhatosmanoglu et al.):
// the vector approximation of the VA+file. Unlike the uniform VA-file grid,
// VA+ (i) allocates the bit budget non-uniformly — dimensions with higher
// energy receive more bits — and (ii) partitions each dimension with k-means
// instead of equi-depth binning. Following the paper's modification, the
// feature space is the DFT (package dft) rather than the KLT.
package vaq

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/simd"
	"hydra/internal/transform/kmeans"
)

// MaxBitsPerDim caps the per-dimension cell count at 256 so codes fit uint8.
const MaxBitsPerDim = 8

// Quantizer holds the trained per-dimension decision intervals.
type Quantizer struct {
	dims int
	bits []int
	// bounds[d] holds the 2^bits[d]-1 finite decision boundaries of
	// dimension d (empty when bits[d] == 0).
	bounds [][]float64
	// offs[d] is dimension d's starting index in a LowerBoundTable
	// (cumulative cell counts), set once the bit allocation is final.
	offs []int
}

// finalizeOffsets computes the per-dimension table offsets for the current
// bit allocation. Called at the end of Train/TrainUniform/Restore.
func (q *Quantizer) finalizeOffsets() {
	q.offs = make([]int, q.dims)
	off := 0
	for d, b := range q.bits {
		q.offs[d] = off
		off += 1 << b
	}
}

// TrainUniform learns a quantizer with the classic VA-file's uniform bit
// allocation (the same budget in every dimension) but VA+ k-means
// boundaries. It exists for the ablation study isolating the value of
// energy-weighted allocation.
func TrainUniform(features [][]float64, totalBits int) (*Quantizer, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("vaq: empty training set")
	}
	dims := len(features[0])
	q := &Quantizer{dims: dims, bits: make([]int, dims), bounds: make([][]float64, dims)}
	per := totalBits / dims
	if per > MaxBitsPerDim {
		per = MaxBitsPerDim
	}
	rem := totalBits - per*dims
	for d := 0; d < dims; d++ {
		q.bits[d] = per
		if d < rem && per < MaxBitsPerDim {
			q.bits[d]++
		}
	}
	if err := q.fitBoundaries(features); err != nil {
		return nil, err
	}
	q.finalizeOffsets()
	return q, nil
}

// Train learns a VA+ quantizer from feature vectors: greedy bit allocation
// by residual energy (each extra bit quarters a dimension's expected squared
// quantization error), then per-dimension k-means boundaries.
func Train(features [][]float64, totalBits int) (*Quantizer, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("vaq: empty training set")
	}
	dims := len(features[0])
	q := &Quantizer{dims: dims, bits: make([]int, dims), bounds: make([][]float64, dims)}

	// Per-dimension energy (second moment — features are roughly zero-mean).
	variance := make([]float64, dims)
	for _, f := range features {
		if len(f) != dims {
			return nil, fmt.Errorf("vaq: inconsistent feature dimensionality")
		}
		for d, v := range f {
			variance[d] += v * v
		}
	}
	for d := range variance {
		variance[d] /= float64(len(features))
	}

	// Greedy allocation: repeatedly grant a bit to the dimension with the
	// largest remaining error var·4^(−bits).
	for b := 0; b < totalBits; b++ {
		best, bestGain := -1, 0.0
		for d := 0; d < dims; d++ {
			if q.bits[d] >= MaxBitsPerDim {
				continue
			}
			gain := variance[d] * math.Pow(0.25, float64(q.bits[d]))
			if gain > bestGain {
				best, bestGain = d, gain
			}
		}
		if best < 0 {
			break
		}
		q.bits[best]++
	}

	if err := q.fitBoundaries(features); err != nil {
		return nil, err
	}
	q.finalizeOffsets()
	return q, nil
}

// fitBoundaries learns the per-dimension k-means decision intervals for the
// current bit allocation.
func (q *Quantizer) fitBoundaries(features [][]float64) error {
	col := make([]float64, len(features))
	for d := 0; d < q.dims; d++ {
		if q.bits[d] == 0 {
			continue
		}
		for i, f := range features {
			if len(f) != q.dims {
				return fmt.Errorf("vaq: inconsistent feature dimensionality")
			}
			col[i] = f[d]
		}
		cells := 1 << q.bits[d]
		centroids := kmeans.Cluster(col, cells, 32)
		q.bounds[d] = kmeans.Boundaries(centroids)
	}
	return nil
}

// Restore rebuilds a trained quantizer from its persisted parameters (the
// snapshot-loading counterpart of Train). The boundary invariants are
// checked with ErrCheck plus the per-dimension arity rule.
func Restore(dims int, bits []int, bounds [][]float64) (*Quantizer, error) {
	if dims <= 0 || len(bits) != dims || len(bounds) != dims {
		return nil, fmt.Errorf("vaq: restore arity mismatch dims=%d bits=%d bounds=%d", dims, len(bits), len(bounds))
	}
	for d, b := range bits {
		if b < 0 || b > MaxBitsPerDim {
			return nil, fmt.Errorf("vaq: dim %d has %d bits", d, b)
		}
	}
	q := &Quantizer{dims: dims, bits: bits, bounds: bounds}
	if err := q.ErrCheck(); err != nil {
		return nil, err
	}
	q.finalizeOffsets()
	return q, nil
}

// Dims returns the feature dimensionality.
func (q *Quantizer) Dims() int { return q.dims }

// Bounds returns the per-dimension decision boundaries (not a copy —
// callers must not mutate).
func (q *Quantizer) Bounds() [][]float64 { return q.bounds }

// Bits returns the per-dimension bit allocation.
func (q *Quantizer) Bits() []int { return q.bits }

// TotalBits returns the number of bits in one approximation code.
func (q *Quantizer) TotalBits() int {
	t := 0
	for _, b := range q.bits {
		t += b
	}
	return t
}

// ApproxBytes returns the on-disk size of one approximation (packed).
func (q *Quantizer) ApproxBytes() int64 { return int64((q.TotalBits() + 7) / 8) }

// Encode returns the cell index of each dimension (0 for 0-bit dimensions).
func (q *Quantizer) Encode(feat []float64) []uint8 {
	code := make([]uint8, q.dims)
	for d := 0; d < q.dims; d++ {
		if q.bits[d] == 0 {
			continue
		}
		b := q.bounds[d]
		idx := sort.SearchFloat64s(b, feat[d])
		for idx < len(b) && b[idx] == feat[d] {
			idx++
		}
		code[d] = uint8(idx)
	}
	return code
}

// Region returns the value interval [lo, hi] of the given cell in dimension
// d (±Inf at the edges; the whole line for 0-bit dimensions).
func (q *Quantizer) Region(d int, cell uint8) (lo, hi float64) {
	b := q.bounds[d]
	if len(b) == 0 {
		return math.Inf(-1), math.Inf(1)
	}
	if int(cell) == 0 {
		lo = math.Inf(-1)
	} else {
		lo = b[cell-1]
	}
	if int(cell) >= len(b) {
		hi = math.Inf(1)
	} else {
		hi = b[cell]
	}
	return lo, hi
}

// LowerBound returns the squared lower-bounding distance from a query
// feature vector to any vector whose approximation equals code: per
// dimension, the squared distance from the query value to the cell interval.
// Since features carry the Parseval scaling (package dft), the bound holds
// against the original time-domain distance.
func (q *Quantizer) LowerBound(queryFeat []float64, code []uint8) float64 {
	var sum float64
	for d := 0; d < q.dims; d++ {
		if q.bits[d] == 0 {
			continue
		}
		lo, hi := q.Region(d, code[d])
		v := queryFeat[d]
		var dd float64
		switch {
		case v < lo:
			dd = lo - v
		case v > hi:
			dd = v - hi
		}
		sum += dd * dd
	}
	return sum
}

// tablePad is the slack TableLen adds behind the last dimension's row, so
// that every row start — including a narrow last one — leaves 256 entries
// inside the table. That is the condition under which simd.CodeBoundBatch
// may index rows with raw code bytes (its assembly backend); without it the
// VA+file's ragged rows would always take the bounds-checked Go kernel.
const tablePad = 255

// TableLen returns the length of a LowerBoundTable: one entry per
// (dimension, cell) pair, Σ_d 2^bits[d] in total (0-bit dimensions
// contribute their single whole-line cell, whose entry is always 0), plus
// tablePad entries that LowerBoundTable never writes and no code addresses.
func (q *Quantizer) TableLen() int {
	n := tablePad
	for _, b := range q.bits {
		n += 1 << b
	}
	return n
}

// LowerBoundTable fills table (length TableLen()) with the per-(dimension,
// cell) contributions of LowerBound for the given query features: the
// squared distance from queryFeat[d] to each cell interval, dimensions laid
// out back-to-back in increasing d. One table amortizes the interval
// arithmetic over every code scored for the query.
// The interior of each dimension's row is one vectorized interval kernel
// over the shifted boundary array; only the unbounded edge cells are
// special-cased. k-means may collapse centroids, leaving fewer boundaries
// than the bit budget allows; Encode only ever emits cells 0..len(bounds),
// so entries past that stay untouched (no code references them).
func (q *Quantizer) LowerBoundTable(queryFeat []float64, table []float64) {
	off := 0
	for d := 0; d < q.dims; d++ {
		cells := 1 << q.bits[d]
		row := table[off : off+cells]
		off += cells
		b := q.bounds[d]
		nb := len(b)
		if q.bits[d] == 0 || nb == 0 {
			row[0] = 0
			continue
		}
		v := queryFeat[d]
		var dd float64
		if dd = v - b[0]; dd < 0 {
			dd = 0
		}
		row[0] = dd * dd
		if dd = b[nb-1] - v; dd < 0 {
			dd = 0
		}
		row[nb] = dd * dd
		simd.StoreWeightedIntervalSq(v, 1, b[:nb-1], b[1:], row[1:nb])
	}
}

// LowerBoundBatch scores many approximation codes per call against a
// LowerBoundTable: codesT holds the candidates' cell indices
// dimension-major (transposed — dimension d's cells for all candidates are
// contiguous at codesT[d*n : (d+1)*n], see simd.Transpose8), and out[i]
// receives candidate i's squared lower bound. The layout lets the kernel
// layer fetch a dimension's cells for eight neighbouring candidates in one
// load and keep their sums in registers; each candidate still accumulates
// one add per dimension in dimension order
// (0-bit dimensions add their zero entry, which leaves the non-negative sum
// bit-unchanged), so out[i] is bit-identical to LowerBound on the same
// inputs.
func (q *Quantizer) LowerBoundBatch(table []float64, codesT []uint8, out []float64) {
	n := len(out)
	dims := q.dims
	if len(codesT) != n*dims {
		panic(fmt.Sprintf("vaq: %d flat cells for %d codes of %d dims", len(codesT), n, dims))
	}
	if q.offs == nil {
		panic("vaq: quantizer missing cell offsets (not built via Train/Restore)")
	}
	simd.CodeBoundBatch(table, q.offs, codesT, out)
}

// ErrCheck verifies quantizer invariants (sorted, finite boundaries).
func (q *Quantizer) ErrCheck() error {
	for d, b := range q.bounds {
		want := 0
		if q.bits[d] > 0 {
			want = 1<<q.bits[d] - 1
		}
		if len(b) > want {
			return fmt.Errorf("vaq: dim %d has %d boundaries, want at most %d", d, len(b), want)
		}
		for i := range b {
			if math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return fmt.Errorf("vaq: dim %d boundary %d is not finite", d, i)
			}
			if i > 0 && b[i] < b[i-1] {
				return fmt.Errorf("vaq: dim %d boundaries not sorted", d)
			}
		}
	}
	return nil
}
