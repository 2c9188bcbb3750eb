package hydra

import (
	"math"
	"testing"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/simd"
)

// runRows is how many rows the run-kernel shapes of
// TestKernelTailsOnArenaViews walk.
const runRows = 5

// TestKernelTailsOnArenaViews pins the dispatched distance kernels on the
// inputs production actually feeds them: capped subslice views of a shared
// flat arena (storage.SeriesFile hands these out, and series i starts at
// element i·length, so lengths that are not a multiple of 16 make every
// element offset reachable), at every length from empty through twice the
// 16-element abandon block. For each (length, offset) shape the kernel must
// return bit-identical results on the view and on an aligned private copy —
// alignment must never change an answer — and the blocked kernels must stay
// within reassociation tolerance of the scalar reference. The run kernel
// walks runs of 0 to runRows rows of the same arena, and must name the row
// and return the bits a per-row loop of the ordered kernel does.
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
			qw := make([]float64, n)
			for i, v := range qc {
				qw[i] = float64(v)
			}

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
			for _, bound := range []float64{0, full / 2, full, inf, series.SquaredDist(qc, long[3000+off+n:3000+off+2*n])} {
				av := simd.SquaredDistEABlocked(qv, cv, bound)
				ac := simd.SquaredDistEABlocked(qc, cc, bound)
				if av != ac {
					t.Fatalf("n=%d off=%d bound=%v: EABlocked view %v, copy %v", n, off, bound, av, ac)
				}
				ov := series.SquaredDistEAOrderedBlocked(qv, cv, ord, bound)
				oc := series.SquaredDistEAOrderedBlocked(qc, cc, ord, bound)
				if ov != oc {
					t.Fatalf("n=%d off=%d bound=%v: ordered view %v, copy %v", n, off, bound, ov, oc)
				}
				for n := 0; n <= runRows; n++ {
					rv := long[3000+off : 3000+off+n*len(qc) : 3000+off+n*len(qc)]
					rc := rv.Clone()
					nv, sv := series.ScanRun(qw, rv, n, ord, bound)
					nc, sc := series.ScanRun(qw, rc, n, ord, bound)
					if nv != nc || math.Float64bits(sv) != math.Float64bits(sc) {
						t.Fatalf("n=%d off=%d rows=%d bound=%v: run view (%d, %v), copy (%d, %v)", len(qc), off, n, bound, nv, sv, nc, sc)
					}
					wantNext, want := perRowRun(qc, rc, n, ord, bound)
					if nv != wantNext || math.Float64bits(sv) != math.Float64bits(want) {
						t.Fatalf("n=%d off=%d rows=%d bound=%v: run (%d, %v), per-row (%d, %v)", len(qc), off, n, bound, nv, sv, wantNext, want)
					}
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

// perRowRun is the run kernel spelled as the loop it replaces: the first of
// n rows whose ordered-kernel sum is not above bound's abandon threshold
// (bound plus the kernels' relative slack of 1e-9), with that sum, or (n, 0).
func perRowRun(q series.Series, rows []float32, n int, ord series.Order, bound float64) (int, float64) {
	l, thr := len(q), bound*(1+1e-9)
	for r := 0; r < n; r++ {
		if d := series.SquaredDistEAOrderedBlocked(q, rows[r*l:(r+1)*l], ord, bound); !(d > thr) {
			return r, d
		}
	}
	return n, 0
}
