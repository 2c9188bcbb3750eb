package simd

import (
	"math"
	"math/rand"
	"testing"
)

// The equivalence suite: every dispatched kernel must return bit-identical
// results on the assembly and Go backends, across lengths (including every
// tail shape around the 4/8/16-lane widths), misaligned subslice views,
// and abandon bounds. On machines without AVX2 the comparisons reduce to
// Go-vs-Go and pass trivially; the CI assembly job provides the real
// coverage.

// tailLengths is every length from 0 to beyond twice the widest lane
// structure (the 16-element abandon block), plus a few larger sizes that
// exercise long main loops with every tail remainder.
func tailLengths() []int {
	ls := make([]int, 0, 64)
	for n := 0; n <= 2*BlockLen+BlockLen-1; n++ {
		ls = append(ls, n)
	}
	for _, n := range []int{63, 64, 65, 127, 128, 129, 255, 256, 257} {
		ls = append(ls, n)
	}
	return ls
}

// misalign returns a view of length n starting at element off of a larger
// backing array, mimicking the capped arena views of storage.SeriesFile
// (odd offsets are reachable in production via subsequence chopping).
func misalignF32(rng *rand.Rand, n, off int) []float32 {
	b := make([]float32, n+off+3)
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	return b[off : off+n : off+n]
}

func misalignF64(rng *rand.Rand, n, off int) []float64 {
	b := make([]float64, n+off+3)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b[off : off+n : off+n]
}

func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestBackendReported(t *testing.T) {
	b := Backend()
	if b != "avx2+fma" && b != "go" {
		t.Fatalf("unexpected backend %q", b)
	}
	t.Logf("backend=%s features=%v hasAVX2=%v", b, Features(), HasAVX2())
}

// intervalCase builds (v, lo, hi) triples with lo <= hi, v landing below,
// inside and above the interval, and ±Inf edges sprinkled in — the region
// shapes of sax/vaq tables and MBRs.
func intervalCase(rng *rand.Rand, n, off int) (v, lo, hi []float64) {
	v = misalignF64(rng, n, off)
	lo = misalignF64(rng, n, off+1)
	hi = misalignF64(rng, n, off+2)
	for i := range lo {
		if lo[i] > hi[i] {
			lo[i], hi[i] = hi[i], lo[i]
		}
		switch rng.Intn(8) {
		case 0:
			lo[i] = math.Inf(-1)
		case 1:
			hi[i] = math.Inf(1)
		case 2:
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		case 3:
			v[i] = lo[i] // exactly on the edge
		}
	}
	return v, lo, hi
}

// TestCodeBoundBatchMatchesScalar pins the bit-identical contract of the
// batched code kernel against the per-candidate scalar formulation, for
// both offset-table and strided-table forms, across tile boundaries.
func TestCodeBoundBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 100, codeTile - 1, codeTile, codeTile + 5} {
		dims := 5
		offs := []int{0, 16, 48, 64, 96}
		rowLens := []int{16, 32, 16, 32, 8}
		table := make([]float64, 104)
		for i := range table {
			table[i] = rng.NormFloat64()
		}
		codesT := make([]uint8, dims*n)
		for d := 0; d < dims; d++ {
			for i := 0; i < n; i++ {
				codesT[d*n+i] = uint8(rng.Intn(rowLens[d]))
			}
		}
		out := make([]float64, n)
		CodeBoundBatch(table, offs, codesT, out)
		for i := 0; i < n; i++ {
			var want float64
			for d := 0; d < dims; d++ {
				want += table[offs[d]+int(codesT[d*n+i])]
			}
			if !bitEq(out[i], want) {
				t.Fatalf("n=%d out[%d] = %v, scalar %v", n, i, out[i], want)
			}
		}

		// Strided form over uniform 16-wide rows.
		stable := make([]float64, dims*16)
		for i := range stable {
			stable[i] = rng.NormFloat64()
		}
		scodes := make([]uint8, dims*n)
		for i := range scodes {
			scodes[i] = uint8(rng.Intn(16))
		}
		CodeBoundBatchStride(stable, 16, scodes, out)
		for i := 0; i < n; i++ {
			var want float64
			for d := 0; d < dims; d++ {
				want += stable[d*16+int(scodes[d*n+i])]
			}
			if !bitEq(out[i], want) {
				t.Fatalf("stride n=%d out[%d] = %v, scalar %v", n, i, out[i], want)
			}
		}
	}
}

func TestTranspose8(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 7, 33} {
		dims := 3
		src := make([]uint8, n*dims)
		for i := range src {
			src[i] = uint8(rng.Intn(256))
		}
		dst := make([]uint8, len(src))
		Transpose8(src, dims, dst)
		for i := 0; i < n; i++ {
			for d := 0; d < dims; d++ {
				if dst[d*n+i] != src[i*dims+d] {
					t.Fatalf("n=%d dst[%d*%d+%d] = %d, want %d", n, d, n, i, dst[d*n+i], src[i*dims+d])
				}
			}
		}
	}
}

// blockOrders returns legal orders for a series of length n — permutations
// of the multiples of BlockLen below n: the identity and the reversal, which
// are every legal order up to two blocks (all of tailLengths' dense
// 0..2·16+15 range), and four seeded shuffles.
func blockOrders(rng *rand.Rand, n int) [][]int {
	nb := n / BlockLen
	orders := make([][]int, 6)
	for i := range orders {
		orders[i] = rng.Perm(nb)
	}
	for b := 0; b < nb; b++ {
		orders[0][b], orders[1][b] = b, nb-1-b
	}
	for _, starts := range orders {
		for i := range starts {
			starts[i] *= BlockLen
		}
	}
	return orders
}

// hostileStarts returns a slice no Order would hold — too many entries,
// negative, unaligned, past the end — which the kernels must still answer
// identically and without reading outside the series.
func hostileStarts(rng *rand.Rand, n int) []int {
	starts := []int{-1, n, n - BlockLen + 1, math.MaxInt, math.MinInt, 3}
	for i := 0; i < n/BlockLen+2; i++ {
		starts = append(starts, rng.Intn(2*n+1)-n/2)
	}
	return starts
}

// orderedThresholds returns the adversarial abandon thresholds of one
// (q, c, starts) case: 0, +Inf, NaN, half the full sum, and every distinct
// block-boundary partial sum exactly — the threshold at which `partial >
// thr` is decided by the last bit.
func orderedThresholds(q, c []float32, starts []int) []float64 {
	full := squaredDistEAOrderedBlockedGo(q, c, starts, math.Inf(1))
	thrs := []float64{0, math.Inf(1), math.NaN(), full / 2, full}
	for thr := math.Inf(-1); ; {
		partial := squaredDistEAOrderedBlockedGo(q, c, starts, thr)
		if !(partial > thr) {
			return thrs
		}
		thrs = append(thrs, partial)
		thr = partial
	}
}

// TestOrderedIdentityMatchesUnordered pins the claim that the reordered
// kernel is the unordered one with a permuted block sequence: under the
// identity order the two return the same bits, abandoned or not.
func TestOrderedIdentityMatchesUnordered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range tailLengths() {
		q, c := misalignF32(rng, n, 1), misalignF32(rng, n, 2)
		ident := make([]int, n/BlockLen)
		for b := range ident {
			ident[b] = b * BlockLen
		}
		for _, thr := range orderedThresholds(q, c, ident) {
			bound := thr / (1 + eaRelSlack)
			got, want := SquaredDistEAOrderedBlocked(q, c, ident, bound), SquaredDistEABlocked(q, c, bound)
			if !bitEq(got, want) {
				t.Fatalf("n=%d bound=%v: identity-ordered %v, unordered %v", n, bound, got, want)
			}
		}
	}
}

// FuzzSquaredDistEABlocked fuzzes the abandon-bound space of the blocked
// kernels: both backends must agree bitwise for arbitrary data, every bound
// including NaN and negatives, and a seeded legal block order.
func FuzzSquaredDistEABlocked(f *testing.F) {
	f.Add(int64(1), 17, 0.5)
	f.Add(int64(2), 33, math.Inf(1))
	f.Add(int64(3), 0, 0.0)
	f.Add(int64(4), 129, 1e300)
	f.Add(int64(5), 47, math.NaN())
	f.Add(int64(6), 256, -1.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, bound float64) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := misalignF32(rng, n, int(seed&3))
		c := misalignF32(rng, n, int(seed>>2&3))
		thr := eaThreshold(bound)
		ref := squaredDistEABlockedGo(q, c, thr)
		if got := SquaredDistEABlocked(q, c, bound); !bitEq(got, ref) {
			t.Fatalf("dispatched %v, go %v", got, ref)
		}
		starts := rng.Perm(n / BlockLen)
		for i := range starts {
			starts[i] *= BlockLen
		}
		refOrd := squaredDistEAOrderedBlockedGo(q, c, starts, thr)
		if got := SquaredDistEAOrderedBlocked(q, c, starts, bound); !bitEq(got, refOrd) {
			t.Fatalf("ordered dispatched %v, go %v", got, refOrd)
		}
	})
}

// FuzzSquaredDistEAOrderedBlocked fuzzes what the reordered kernel adds to
// the unordered one — the block sequence: the fuzzer owns the starts
// themselves (eight raw values, repeated to cover the series), legal or
// not, and both backends must agree bitwise around every block-boundary
// partial sum without reading outside q and c.
func FuzzSquaredDistEAOrderedBlocked(f *testing.F) {
	f.Add(int64(1), 47, 0, 16, 0, 0, 0, 0, 0, 0)
	f.Add(int64(2), 256, 240, 0, 128, 16, 64, 32, 208, 96)
	f.Add(int64(3), 33, -1, 18, 1<<30, 17, 3, -16, 32, 33)
	f.Add(int64(4), 15, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, seed int64, n int, s0, s1, s2, s3, s4, s5, s6, s7 int) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := misalignF32(rng, n, int(seed&3))
		c := misalignF32(rng, n, int(seed>>2&3))
		raw := [8]int{s0, s1, s2, s3, s4, s5, s6, s7}
		starts := make([]int, n/BlockLen+int(seed>>4&3))
		for i := range starts {
			starts[i] = raw[i%len(raw)] + i/len(raw)*len(raw)*BlockLen
		}
		for _, thr := range orderedThresholds(q, c, starts) {
			bound := thr / (1 + eaRelSlack)
			ref := squaredDistEAOrderedBlockedGo(q, c, starts, eaThreshold(bound))
			if got := SquaredDistEAOrderedBlocked(q, c, starts, bound); !bitEq(got, ref) {
				t.Fatalf("starts=%v bound=%v: dispatched %v, go %v", starts, bound, got, ref)
			}
		}
	})
}

// FuzzIntervalKernels fuzzes the interval kernels over arbitrary boxes.
func FuzzIntervalKernels(f *testing.F) {
	f.Add(int64(1), 5)
	f.Add(int64(2), 16)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 1<<10 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		v, lo, hi := intervalCase(rng, n, int(seed&3))
		w := misalignF64(rng, n, 1)
		for i := range w {
			w[i] = math.Abs(w[i])
		}
		if got, ref := IntervalDistSq(v, lo, hi), intervalDistSqGo(v, lo, hi); !bitEq(got, ref) {
			t.Fatalf("interval dispatched %v, go %v", got, ref)
		}
		got := WeightedIntervalDistSq(v, lo, hi, w)
		if ref := weightedIntervalDistSqGo(v, lo, hi, w); !bitEq(got, ref) {
			t.Fatalf("weighted dispatched %v, go %v", got, ref)
		}
	})
}
