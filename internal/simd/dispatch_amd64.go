//go:build amd64 && !purego

package simd

// useAVX2 selects the assembly backend for every dispatched kernel. It is
// decided once in init (CPU probe + HYDRA_SIMD override) and never changes
// afterwards, so concurrent queries always agree on the backend.
var useAVX2 bool

func init() {
	detectFeatures()
	useAVX2 = hasAVX2 && hasFMA && !envDisabled()
}

// Backend reports the kernel backend selected at startup: "avx2+fma" when
// the assembly kernels are active, "go" otherwise.
func Backend() string {
	if useAVX2 {
		return "avx2+fma"
	}
	return "go"
}

// Features reports the probed hardware capabilities relevant to the kernel
// layer, independent of which backend was selected.
func Features() []string {
	var fs []string
	if hasAVX {
		fs = append(fs, "avx")
	}
	if hasAVX2 {
		fs = append(fs, "avx2")
	}
	if hasFMA {
		fs = append(fs, "fma")
	}
	return fs
}

// HasAVX2 reports whether the hardware (and OS) can run the assembly
// backend, regardless of whether it was selected.
func HasAVX2() bool { return hasAVX2 && hasFMA }

//go:noescape
func squaredDistAVX2(q, c []float32) float64

//go:noescape
func squaredDistEABlockedAVX2(q, c []float32, thr float64) float64

//go:noescape
func squaredDistEAOrderedBlockedAVX2(q, c []float32, starts []int, thr float64) float64

//go:noescape
func scanRunAVX2(qw []float64, rows []float32, n int, starts []int, thr float64) (next int, sum float64)

//go:noescape
func allFiniteAVX2(x []float32) bool

//go:noescape
func codeBoundGroupsAsm(table []float64, offs []int, codesT []uint8, out []float64)

//go:noescape
func intervalDistSqAVX2(v, lo, hi []float64) float64

//go:noescape
func weightedIntervalDistSqAVX2(v, lo, hi, w []float64) float64

//go:noescape
func eapcaBoundAVX2(qm, qs, w, minMean, maxMean, minStd, maxStd []float64) float64

//go:noescape
func storeWeightedIntervalSqAVX2(v, w float64, lo, hi, out []float64)

//go:noescape
func blockMomentPairsAVX2(x, out []float32, pairs int)

// SquaredDist returns the squared Euclidean distance between q and c.
// Precondition: len(c) >= len(q); only the first len(q) elements are read.
func SquaredDist(q, c []float32) float64 {
	if useAVX2 {
		return squaredDistAVX2(q, c)
	}
	return squaredDistGo(q, c)
}

// SquaredDistEABlocked computes the squared distance with blocked early
// abandoning: the bound is tested once per 16-element block, and an abandon
// returns a partial sum strictly above bound. Precondition: len(c) >= len(q).
func SquaredDistEABlocked(q, c []float32, bound float64) float64 {
	thr := eaThreshold(bound)
	if useAVX2 {
		return squaredDistEABlockedAVX2(q, c, thr)
	}
	return squaredDistEABlockedGo(q, c, thr)
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
//
// The assembly also prefetches the four leading blocks of the series sixteen
// series-lengths past c — the candidate a scan over the contiguous arena
// reaches sixteen calls later. Reordered blocks are a pattern no hardware
// prefetcher follows, so without it every candidate waits on a cache miss
// and a scan's speed follows whatever else shares the last-level cache. A
// prefetch cannot fault and changes no result; the Go twin has none.
func SquaredDistEAOrderedBlocked(q, c []float32, starts []int, bound float64) float64 {
	thr := eaThreshold(bound)
	if useAVX2 {
		return squaredDistEAOrderedBlockedAVX2(q, c, starts, thr)
	}
	return squaredDistEAOrderedBlockedGo(q, c, starts, thr)
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
//
// The assembly prefetches, for each row, the leading blocks of the row
// sixteen rows ahead, as the per-candidate kernel does.
func ScanRun(qWide []float64, rows []float32, n int, starts []int, bound float64) (next int, sum float64) {
	checkRun(len(qWide), len(rows), n)
	thr := eaThreshold(bound)
	if useAVX2 {
		return scanRunAVX2(qWide, rows, n, starts, thr)
	}
	return scanRunGo(qWide, rows, n, starts, thr)
}

// FirstNonFinite returns the index of the first NaN or infinity in x, or
// -1 when every value is finite.
func FirstNonFinite(x []float32) int {
	from := 0
	if useAVX2 && allFiniteAVX2(x) {
		from = len(x) &^ 7
	}
	return firstNonFiniteGo(x, from)
}

// codeBoundGroups scores the leading whole groups of eight candidates of
// CodeBoundBatch on the assembly backend and returns how many candidates it
// covered: 0 on the Go backend, and 0 for a table the assembly may not
// touch. The assembly indexes rows with raw code bytes and checks nothing
// itself, so it runs only under codeRowsReadable; the caller has
// established len(codesT) == len(offs)*len(out).
func codeBoundGroups(table []float64, offs []int, codesT []uint8, out []float64) int {
	if !useAVX2 || !codeRowsReadable(table, offs) {
		return 0
	}
	codeBoundGroupsAsm(table, offs, codesT, out)
	return len(out) &^ 7
}

// codeRowsReadable reports whether every row start leaves codeRowLen
// entries inside table — the condition under which no code byte can address
// memory outside it.
func codeRowsReadable(table []float64, offs []int) bool {
	last := len(table) - codeRowLen
	for _, off := range offs {
		if off < 0 || off > last {
			return false
		}
	}
	return true
}

// IntervalDistSq returns Σ_i d(v[i], [lo[i], hi[i]])², the squared distance
// from a vector to a box — the MBR lower bound of SFA leaves and R-tree
// nodes. Preconditions: len(lo) and len(hi) >= len(v).
func IntervalDistSq(v, lo, hi []float64) float64 {
	if useAVX2 {
		return intervalDistSqAVX2(v, lo, hi)
	}
	return intervalDistSqGo(v, lo, hi)
}

// WeightedIntervalDistSq returns Σ_i w[i]·d(v[i], [lo[i], hi[i]])², the
// segment-width-weighted box bound of PAA/iSAX node regions.
// Preconditions: len(lo), len(hi) and len(w) >= len(v).
func WeightedIntervalDistSq(v, lo, hi, w []float64) float64 {
	if useAVX2 {
		return weightedIntervalDistSqAVX2(v, lo, hi, w)
	}
	return weightedIntervalDistSqGo(v, lo, hi, w)
}

// EAPCABound returns Σ_s w[s]·(d(qm[s], [minMean[s], maxMean[s]])² +
// d(qs[s], [minStd[s], maxStd[s]])²), the EAPCA node lower bound of the
// DSTree. Preconditions: all slices >= len(w) long.
func EAPCABound(qm, qs, w, minMean, maxMean, minStd, maxStd []float64) float64 {
	if useAVX2 {
		return eapcaBoundAVX2(qm, qs, w, minMean, maxMean, minStd, maxStd)
	}
	return eapcaBoundGo(qm, qs, w, minMean, maxMean, minStd, maxStd)
}

// StoreWeightedIntervalSq fills out[i] = w·d(v, [lo[i], hi[i]])² — the
// row-filling primitive of the per-query lower-bound tables.
// Preconditions: len(lo) and len(hi) >= len(out).
func StoreWeightedIntervalSq(v, w float64, lo, hi, out []float64) {
	if useAVX2 {
		storeWeightedIntervalSqAVX2(v, w, lo, hi, out)
		return
	}
	storeWeightedIntervalSqGo(v, w, lo, hi, out)
}

// blockMomentPairs fills the moment pairs of the leading whole pairs of
// blocks of BlockMoments on the assembly backend and returns how many blocks
// it covered: 0 on the Go backend. The caller has established that out holds
// two values per block of x.
func blockMomentPairs(x, out []float32, blocks int) int {
	if !useAVX2 {
		return 0
	}
	blockMomentPairsAVX2(x, out, blocks/2)
	return blocks &^ 1
}
