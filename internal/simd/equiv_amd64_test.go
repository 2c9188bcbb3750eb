//go:build amd64 && !purego

package simd

import (
	"math"
	"math/rand"
	"testing"
)

// Direct assembly-vs-Go equivalence: these tests name the AVX2 symbols, so
// they only compile where the assembly backend exists. The skip guards
// cover amd64 hardware that cannot run it.

// forceGoBackend routes every dispatched kernel to its Go twin until the
// returned func runs — how a benchmark times both backends through the same
// exported entry point. Not for use beside concurrent kernel calls.
func forceGoBackend() (restore func()) {
	prev := useAVX2
	useAVX2 = false
	return func() { useAVX2 = prev }
}

func TestSquaredDistEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range tailLengths() {
		for off := 0; off < 4; off++ {
			q := misalignF32(rng, n, off)
			c := misalignF32(rng, n, off+1)
			asm := squaredDistAVX2(q, c)
			ref := squaredDistGo(q, c)
			if !bitEq(asm, ref) {
				t.Fatalf("n=%d off=%d: asm %v (bits %x), go %v (bits %x)",
					n, off, asm, math.Float64bits(asm), ref, math.Float64bits(ref))
			}
		}
	}
}

func TestSquaredDistEABlockedEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range tailLengths() {
		for off := 0; off < 3; off++ {
			q := misalignF32(rng, n, off)
			c := misalignF32(rng, n, off+2)
			full := squaredDistGo(q, c)
			for _, bound := range []float64{0, full * 0.25, full * 0.5, full, full * 2, math.Inf(1)} {
				thr := eaThreshold(bound)
				asm := squaredDistEABlockedAVX2(q, c, thr)
				ref := squaredDistEABlockedGo(q, c, thr)
				if !bitEq(asm, ref) {
					t.Fatalf("n=%d off=%d bound=%v: asm %v, go %v", n, off, bound, asm, ref)
				}
			}
		}
	}
}

func TestSquaredDistEAOrderedBlockedEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(3))
	for _, n := range tailLengths() {
		for off := 0; off < 3; off++ {
			q := misalignF32(rng, n, off)
			c := misalignF32(rng, n, off+1)
			for _, starts := range append(blockOrders(rng, n), hostileStarts(rng, n)) {
				for _, thr := range orderedThresholds(q, c, starts) {
					asm := squaredDistEAOrderedBlockedAVX2(q, c, starts, thr)
					ref := squaredDistEAOrderedBlockedGo(q, c, starts, thr)
					if !bitEq(asm, ref) {
						t.Fatalf("n=%d off=%d starts=%v thr=%v: asm %v, go %v", n, off, starts, thr, asm, ref)
					}
				}
			}
		}
	}
}

func TestScanRunEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(4))
	for _, l := range tailLengths() {
		for off := 0; off < 3; off++ {
			q := misalignF32(rng, l, off)
			qw := widen(q)
			for _, n := range runCounts {
				rows := misalignF32(rng, n*l, off+1)
				for _, starts := range append(blockOrders(rng, l), hostileStarts(rng, l)) {
					for _, thr := range runThresholds(q, rows, n, starts) {
						an, asm := scanRunAVX2(qw, rows, n, starts, thr)
						gn, ref := scanRunGo(qw, rows, n, starts, thr)
						if an != gn || !bitEq(asm, ref) {
							t.Fatalf("l=%d off=%d n=%d starts=%v thr=%v: asm (%d, %v), go (%d, %v)",
								l, off, n, starts, thr, an, asm, gn, ref)
						}
					}
				}
			}
		}
	}
}

func TestIntervalDistSqEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range tailLengths() {
		for off := 0; off < 3; off++ {
			v, lo, hi := intervalCase(rng, n, off)
			asm := intervalDistSqAVX2(v, lo, hi)
			ref := intervalDistSqGo(v, lo, hi)
			if !bitEq(asm, ref) {
				t.Fatalf("n=%d off=%d: asm %v, go %v", n, off, asm, ref)
			}
		}
	}
}

func TestWeightedIntervalDistSqEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(6))
	for _, n := range tailLengths() {
		v, lo, hi := intervalCase(rng, n, 1)
		w := misalignF64(rng, n, 2)
		for i := range w {
			w[i] = math.Abs(w[i]) + 1
		}
		asm := weightedIntervalDistSqAVX2(v, lo, hi, w)
		ref := weightedIntervalDistSqGo(v, lo, hi, w)
		if !bitEq(asm, ref) {
			t.Fatalf("n=%d: asm %v, go %v", n, asm, ref)
		}
	}
}

func TestEAPCABoundEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range tailLengths() {
		qm, minMean, maxMean := intervalCase(rng, n, 0)
		qs, minStd, maxStd := intervalCase(rng, n, 1)
		w := misalignF64(rng, n, 2)
		for i := range w {
			w[i] = math.Abs(w[i]) + 1
		}
		asm := eapcaBoundAVX2(qm, qs, w, minMean, maxMean, minStd, maxStd)
		ref := eapcaBoundGo(qm, qs, w, minMean, maxMean, minStd, maxStd)
		if !bitEq(asm, ref) {
			t.Fatalf("n=%d: asm %v, go %v", n, asm, ref)
		}
	}
}

func TestStoreWeightedIntervalSqEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range tailLengths() {
		_, lo, hi := intervalCase(rng, n, 1)
		v := rng.NormFloat64()
		w := math.Abs(rng.NormFloat64()) + 1
		asmOut := make([]float64, n)
		refOut := make([]float64, n)
		storeWeightedIntervalSqAVX2(v, w, lo, hi, asmOut)
		storeWeightedIntervalSqGo(v, w, lo, hi, refOut)
		for i := range asmOut {
			if !bitEq(asmOut[i], refOut[i]) {
				t.Fatalf("n=%d out[%d]: asm %v, go %v", n, i, asmOut[i], refOut[i])
			}
		}
	}
}

func TestBlockMomentsEquivalence(t *testing.T) {
	if !HasAVX2() {
		t.Skip("no AVX2+FMA hardware; Go-vs-Go is vacuous")
	}
	rng := rand.New(rand.NewSource(9))
	for _, n := range tailLengths() {
		for off := 0; off < 4; off++ {
			for _, scale := range []float32{1, 1e-30, 1e18, 3e38} {
				x := misalignF32(rng, n, off)
				for i := range x {
					x[i] *= scale
				}
				blocks := n / BlockLen
				asm := make([]float32, 2*blocks)
				ref := make([]float32, 2*blocks)
				blockMomentPairsAVX2(x, asm, blocks/2)
				blockMomentsGo(x, asm, blocks&^1, blocks)
				blockMomentsGo(x, ref, 0, blocks)
				for i := range ref {
					if math.Float32bits(asm[i]) != math.Float32bits(ref[i]) {
						t.Fatalf("n=%d off=%d scale=%g out[%d]: asm %v, go %v", n, off, scale, i, asm[i], ref[i])
					}
				}
			}
		}
	}
}
