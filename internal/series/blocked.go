package series

import "hydra/internal/simd"

// The blocked kernels below compute the same squared distances as
// SquaredDistEA / SquaredDistEAOrdered but test the early-abandon bound once
// per 16-element block (simd.BlockLen) instead of once per element, and split the
// accumulation over eight independent lanes — the dispatch layer
// (internal/simd) runs them as AVX2+FMA assembly where the hardware allows
// and as a bit-identical Go twin everywhere else. On the raw-data scans that
// dominate exact query answering (the paper's §4.3 finding) this trades a
// bounded amount of extra arithmetic — at most one block beyond the scalar
// abandon point — for vector loads, fused multiply-adds and far fewer
// branches.
//
// Guarantees relative to the scalar kernels:
//
//   - Full computations (no abandon) return the same sum up to float64
//     reassociation error (the terms are identical, only their association
//     differs), well within 1e-9 for Z-normalized series.
//   - A candidate the scalar kernel keeps (true squared distance <= bound)
//     is never abandoned: partial sums of squares are non-decreasing, so no
//     block-boundary partial sum can exceed a bound the total respects —
//     and the abandon test adds a small relative slack (see
//     internal/simd) to absorb the reassociation error when a partial sum
//     lands exactly on the bound.
//   - Whenever the blocked kernel abandons, the returned partial sum exceeds
//     bound (strictly, since the slack is positive), exactly like the scalar
//     kernels.
//   - Results are bit-identical across SIMD backends (the internal/simd
//     contract), so answers do not depend on the machine the query ran on.

// SquaredDistEAOrderedBlocked computes the squared distance with blocked
// early abandoning, visiting the query's 16-element blocks in the given
// order (the UCR-suite reordered optimization at block granularity: every
// block is one cache line of the aligned arena, read with the same two
// contiguous vector loads as the unordered kernel — a per-element order
// would need gathers that touch every line of the candidate at random and
// cost several times what the reordering saves). Callers that walk the
// arena in storage order are also served by the kernel's prefetch of the
// same blocks sixteen series ahead (see simd.SquaredDistEAOrderedBlocked).
// It panics unless q, c and the series ord was built for have one length.
func SquaredDistEAOrderedBlocked(q, c Series, ord Order, bound float64) float64 {
	checkOrdered(q, c, ord)
	return simd.SquaredDistEAOrderedBlocked(q, c, ord.starts, bound)
}

// ScanRun is SquaredDistEAOrderedBlocked over n series stored back to back
// from rows[0] (an arena run, storage.Cursor.ReadRun), walked in one kernel
// call: it returns the position of the first series whose squared distance
// is within bound's early-abandon threshold, and that distance, or next = n
// when none is (see simd.ScanRun). qWide is the query ord was built for,
// widened to float64. The distance is bit-identical to
// SquaredDistEAOrderedBlocked on that series, and every series it skipped
// would have been abandoned, or kept at a distance above bound, by that
// kernel. It panics unless len(qWide) equals the length ord was built for
// and rows holds n such series.
func ScanRun(qWide []float64, rows []float32, n int, ord Order, bound float64) (next int, sum float64) {
	if len(qWide) != ord.n {
		panicOrdered(len(qWide), len(qWide), ord.n)
	}
	return simd.ScanRun(qWide, rows, n, ord.starts, bound)
}
