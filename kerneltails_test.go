package hydra

import (
	"math"
	"testing"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/simd"
)

// TestKernelTailsOnArenaViews pins the dispatched distance kernels on the
// inputs production actually feeds them: capped subslice views of a shared
// flat arena (storage.SeriesFile hands these out, and series i starts at
// element i·length, so lengths that are not a multiple of 16 make every
// element offset reachable), at every length from empty through twice the
// 16-element abandon block. For each (length, offset) shape the kernel must
// return bit-identical results on the view and on an aligned private copy —
// alignment must never change an answer — and the blocked kernels must stay
// within reassociation tolerance of the scalar reference.
func TestKernelTailsOnArenaViews(t *testing.T) {
	t.Logf("kernel backend: %s", simd.Backend())
	long := dataset.RandomWalk(1, 4096, 5).Series[0]
	inf := math.Inf(1)
	for n := 0; n <= 33; n++ {
		for off := 0; off < 5; off++ {
			qv := long[100+off : 100+off+n : 100+off+n]
			cv := long[2000+off+3 : 2000+off+3+n : 2000+off+3+n]
			qc, cc := qv.Clone(), cv.Clone()
			ord := series.NewOrder(qc)

			if a, b := series.SquaredDist(qv, cv), series.SquaredDist(qc, cc); a != b {
				t.Fatalf("n=%d off=%d: SquaredDist view %v, copy %v", n, off, a, b)
			}
			mv, mc := make([]float32, simd.BlockMomentsLen(n)), make([]float32, simd.BlockMomentsLen(n))
			simd.BlockMoments(cv, mv)
			simd.BlockMoments(cc, mc)
			for i := range mc {
				if math.Float32bits(mv[i]) != math.Float32bits(mc[i]) {
					t.Fatalf("n=%d off=%d: BlockMoments[%d] view %v, copy %v", n, off, i, mv[i], mc[i])
				}
			}
			full := series.SquaredDist(qc, cc)
			tol := 1e-9 * (1 + full)
			for _, bound := range []float64{0, full / 2, full, inf} {
				av := series.SquaredDistEABlocked(qv, cv, bound)
				ac := series.SquaredDistEABlocked(qc, cc, bound)
				if av != ac {
					t.Fatalf("n=%d off=%d bound=%v: EABlocked view %v, copy %v", n, off, bound, av, ac)
				}
				ov := series.SquaredDistEAOrderedBlocked(qv, cv, ord, bound)
				oc := series.SquaredDistEAOrderedBlocked(qc, cc, ord, bound)
				if ov != oc {
					t.Fatalf("n=%d off=%d bound=%v: ordered view %v, copy %v", n, off, bound, ov, oc)
				}
				// Pruning parity against the scalar reference: anything the
				// scalar kernel keeps, the blocked kernel must report at its
				// full distance.
				if scalar := series.SquaredDistEA(qc, cc, bound); scalar <= bound && math.Abs(av-full) > tol {
					t.Fatalf("n=%d off=%d bound=%v: blocked abandoned a kept candidate (%v, full %v)",
						n, off, bound, av, full)
				}
			}
		}
	}
}
