//go:build !amd64 || purego

package simd

// This build has no assembly backend (non-amd64 architecture or the purego
// tag): every kernel is its Go twin, and Backend always reports "go".

// Backend reports the kernel backend selected at startup: always "go" in
// this build.
func Backend() string { return "go" }

// Features reports the probed hardware capabilities relevant to the kernel
// layer; none are probed in this build.
func Features() []string { return nil }

// HasAVX2 reports whether the hardware can run the assembly backend; this
// build never can.
func HasAVX2() bool { return false }

// SquaredDist returns the squared Euclidean distance between q and c.
// Precondition: len(c) >= len(q); only the first len(q) elements are read.
func SquaredDist(q, c []float32) float64 { return squaredDistGo(q, c) }

// SquaredDistEABlocked computes the squared distance with blocked early
// abandoning: the bound is tested once per 16-element block, and an abandon
// returns a partial sum strictly above bound. Precondition: len(c) >= len(q).
func SquaredDistEABlocked(q, c []float32, bound float64) float64 {
	return squaredDistEABlockedGo(q, c, eaThreshold(bound))
}

// SquaredDistEAOrderedBlocked is SquaredDistEABlocked visiting whole blocks
// in the given order: block k is the BlockLen contiguous elements from
// starts[k], summed and tested exactly like a block of the unordered kernel
// (the identity order returns the same bits), and the elements from
// BlockLen·len(starts) on are the sequential tail. The result is the squared
// distance when starts is a permutation of the multiples of BlockLen below
// len(q) — series.Order builds only such slices; any other slice stays
// memory-safe, because at most len(q)/BlockLen starts are read and each is
// clamped to [0, len(q)-BlockLen]. Precondition: len(c) >= len(q).
func SquaredDistEAOrderedBlocked(q, c []float32, starts []int, bound float64) float64 {
	return squaredDistEAOrderedBlockedGo(q, c, starts, eaThreshold(bound))
}

// ScanRun is SquaredDistEAOrderedBlocked over the n rows of len(qWide)
// values stored back to back from rows[0], walked without a return between
// candidates: it returns the first row whose squared distance from the query
// is within bound's early-abandon threshold, as next (0 <= next < n), with
// that distance as sum, bit-identical to SquaredDistEAOrderedBlocked on the
// row. When no row passes it returns next = n and sum = 0. qWide is the
// query with every value converted to float64 (exact), made once per query
// instead of once per block. Which rows pass does not depend on how often
// the kernel tests a partial sum, since partial sums never decrease; a NaN
// sum is never above the threshold, so a NaN in the query or a row passes
// that row. starts is clamped as in SquaredDistEAOrderedBlocked, and rows
// must hold n·len(qWide) values (checked; it panics otherwise).
func ScanRun(qWide []float64, rows []float32, n int, starts []int, bound float64) (next int, sum float64) {
	checkRun(len(qWide), len(rows), n)
	return scanRunGo(qWide, rows, n, starts, eaThreshold(bound))
}

// FirstNonFinite returns the index of the first NaN or infinity in x, or
// -1 when every value is finite.
func FirstNonFinite(x []float32) int { return firstNonFiniteGo(x, 0) }

// codeBoundGroups is the assembly share of CodeBoundBatch: none in this
// build, so the Go kernel scores every candidate.
func codeBoundGroups(table []float64, offs []int, codesT []uint8, out []float64) int { return 0 }

// IntervalDistSq returns Σ_i d(v[i], [lo[i], hi[i]])², the squared distance
// from a vector to a box — the MBR lower bound of SFA leaves and R-tree
// nodes. Preconditions: len(lo) and len(hi) >= len(v).
func IntervalDistSq(v, lo, hi []float64) float64 { return intervalDistSqGo(v, lo, hi) }

// WeightedIntervalDistSq returns Σ_i w[i]·d(v[i], [lo[i], hi[i]])², the
// segment-width-weighted box bound of PAA/iSAX node regions.
// Preconditions: len(lo), len(hi) and len(w) >= len(v).
func WeightedIntervalDistSq(v, lo, hi, w []float64) float64 {
	return weightedIntervalDistSqGo(v, lo, hi, w)
}

// EAPCABound returns Σ_s w[s]·(d(qm[s], [minMean[s], maxMean[s]])² +
// d(qs[s], [minStd[s], maxStd[s]])²), the EAPCA node lower bound of the
// DSTree. Preconditions: all slices >= len(w) long.
func EAPCABound(qm, qs, w, minMean, maxMean, minStd, maxStd []float64) float64 {
	return eapcaBoundGo(qm, qs, w, minMean, maxMean, minStd, maxStd)
}

// StoreWeightedIntervalSq fills out[i] = w·d(v, [lo[i], hi[i]])² — the
// row-filling primitive of the per-query lower-bound tables.
// Preconditions: len(lo) and len(hi) >= len(out).
func StoreWeightedIntervalSq(v, w float64, lo, hi, out []float64) {
	storeWeightedIntervalSqGo(v, w, lo, hi, out)
}

// blockMomentPairs is the assembly share of BlockMoments: none in this
// build, so the Go kernel fills every block.
func blockMomentPairs(x, out []float32, blocks int) int { return 0 }
