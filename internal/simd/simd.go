package simd

import "os"

// BlockLen is the number of elements between two early-abandon tests of the
// blocked kernels, and the unit the reordered kernel permutes: sixteen
// float32 values, one 64-byte cache line of the aligned series arena.
const BlockLen = 16

// eaRelSlack is the relative margin the blocked early-abandoning kernels
// require before abandoning: a block-boundary partial sum must exceed
// bound*(1+eaRelSlack). Reassociating a sum of non-negative float64 terms
// perturbs it by at most a few n·ulp, many orders of magnitude below this
// slack for any realistic series length, so a candidate whose true distance
// is within the bound is never lost to rounding. Both backends test against
// the same precomputed threshold, keeping abandon decisions bit-identical.
const eaRelSlack = 1e-9

// eaThreshold is the abandon threshold for the given bound.
func eaThreshold(bound float64) float64 { return bound * (1 + eaRelSlack) }

// checkRun panics unless rows holds n rows of l values — the one argument
// of ScanRun that addresses memory and no clamp covers.
func checkRun(l, rows, n int) {
	if n < 0 || l > 0 && n > rows/l {
		panic("simd: run rows do not hold n series")
	}
}

// envDisabled reports whether the HYDRA_SIMD environment variable forces
// the Go backend ("off", "go" or "0"); every other value — including
// "avx2", which CI uses to document intent — keeps automatic detection.
func envDisabled() bool {
	switch os.Getenv("HYDRA_SIMD") {
	case "off", "go", "0":
		return true
	}
	return false
}

// codeRowLen is the number of table entries one code byte can address from
// a row start. The assembly code-bound kernel indexes rows with raw bytes,
// so it runs only when every row start leaves codeRowLen readable entries.
const codeRowLen = 256

// maxStackDims bounds the dimension count for which CodeBoundBatchStride
// builds its row offsets on the stack (ADS+ runs 16 segments).
const maxStackDims = 64

// CodeBoundBatch scores len(out) candidates against a per-(dimension, cell)
// contribution table with dimension rows starting at offs[d]: out[i] =
// Σ_d table[offs[d]+codesT[d*n+i]]. codesT is the segment-major (transposed)
// code array — dimension d's cell indices for all candidates are contiguous
// at codesT[d*n : (d+1)*n] — so one 64-bit load fetches a dimension's codes
// for eight neighbouring candidates, whose sums the kernel keeps in
// registers and stores once. Each out[i] accumulates one add per dimension
// in increasing d from zero, so results are bit-identical to the
// per-candidate scalar formulation on either backend.
//
// Preconditions: len(codesT) == len(offs)*len(out), and every referenced
// cell index stays inside table. The assembly backend does not rely on the
// second: it is taken only when offs[d]+256 <= len(table) for every d, so no
// code byte can address memory outside table; other tables (and the
// len(out)%8 tail) run the bounds-checked Go kernel, which panics on a
// violation.
func CodeBoundBatch(table []float64, offs []int, codesT []uint8, out []float64) {
	n := len(out)
	if len(codesT) != len(offs)*n {
		panic("simd: transposed code array does not match offsets × candidates")
	}
	done := codeBoundGroups(table, offs, codesT, out)
	codeBoundGo(table, offs, codesT, out, done)
}

// CodeBoundBatchStride is CodeBoundBatch for tables whose dimension rows
// all have the same length: dimension d's row starts at table[d*stride].
// dims is inferred as len(codesT)/len(out).
func CodeBoundBatchStride(table []float64, stride int, codesT []uint8, out []float64) {
	n := len(out)
	if n == 0 {
		return
	}
	dims := len(codesT) / n
	if len(codesT) != dims*n {
		panic("simd: transposed code array is not a whole number of dimensions")
	}
	var buf [maxStackDims]int
	offs := buf[:]
	if dims > len(buf) {
		offs = make([]int, dims)
	}
	offs = offs[:dims]
	for d := range offs {
		offs[d] = d * stride
	}
	CodeBoundBatch(table, offs, codesT, out)
}

// Transpose8 fills dst with the segment-major (transposed) view of the
// candidate-major code array src: dst[d*n+i] = src[i*dims+d]. It is the
// build-time companion of CodeBoundBatch — indexes lay codes out per
// candidate, the batched kernels stream them per dimension.
func Transpose8(src []uint8, dims int, dst []uint8) {
	if dims <= 0 {
		return
	}
	n := len(src) / dims
	if len(src) != n*dims || len(dst) != len(src) {
		panic("simd: transpose size mismatch")
	}
	for i := 0; i < n; i++ {
		row := src[i*dims : (i+1)*dims]
		for d, v := range row {
			dst[d*n+i] = v
		}
	}
}

// BlockMomentsLen returns the length of the block-moment record of an
// n-value series: two float32 values per block of BlockLen values, a short
// last block included.
func BlockMomentsLen(n int) int { return 2 * ((n + BlockLen - 1) / BlockLen) }

// BlockMoments fills out with the block-moment record of x: for block b of
// BlockLen consecutive values (the last block may be shorter, w values),
// out[2b] = √w·mean and out[2b+1] = √w·std — the block's sum over √w and the
// root of its summed squared deviations from the mean. Sums run in float64
// and each moment is rounded to float32 once. The squared Euclidean distance
// between two such records never exceeds (up to that rounding) the squared
// distance between the series: Σ_block (x−y)² ≥ w·((μx−μy)² + (σx−σy)²).
// The record's own norm is the series' norm, since w·(μ² + σ²) = Σ_block x².
//
// Precondition: len(out) == BlockMomentsLen(len(x)).
func BlockMoments(x, out []float32) {
	if len(out) != BlockMomentsLen(len(x)) {
		panic("simd: block-moment record does not match the series length")
	}
	blocks := len(x) / BlockLen
	blockMomentsGo(x, out, blockMomentPairs(x, out, blocks), blocks)
	if tail := x[blocks*BlockLen:]; len(tail) > 0 {
		out[2*blocks], out[2*blocks+1] = blockMomentsTail(tail)
	}
}
