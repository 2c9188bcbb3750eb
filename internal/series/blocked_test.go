package series

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/simd"
)

// SquaredDistEABlocked is simd.SquaredDistEABlocked behind the length check
// every series kernel makes: the unordered blocked kernel, held to the
// guarantees blocked.go states.
func SquaredDistEABlocked(q, c Series, bound float64) float64 {
	if len(q) != len(c) {
		panic(fmt.Sprintf("series: squared distance of mismatched lengths %d and %d", len(q), len(c)))
	}
	return simd.SquaredDistEABlocked(q, c, bound)
}

func randPair(n int, rng *rand.Rand) (Series, Series) {
	q := make(Series, n)
	c := make(Series, n)
	for i := range q {
		q[i] = float32(rng.NormFloat64())
		c[i] = float32(rng.NormFloat64())
	}
	return q, c
}

// TestBlockedEquivalence: with no abandoning, the blocked kernels must match
// the scalar kernels within 1e-9 for every length 1..129 (covering every
// remainder of the 16-element block and the 4-wide unroll).
func TestBlockedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inf := math.Inf(1)
	for n := 1; n <= 129; n++ {
		q, c := randPair(n, rng)
		ord := NewOrder(q)
		want := SquaredDist(q, c)
		tol := 1e-9 * (1 + want)
		if got := SquaredDistEABlocked(q, c, inf); math.Abs(got-want) > tol {
			t.Errorf("n=%d: blocked %v, scalar %v", n, got, want)
		}
		if got := SquaredDistEAOrderedBlocked(q, c, ord, inf); math.Abs(got-want) > tol {
			t.Errorf("n=%d: ordered blocked %v, scalar %v", n, got, want)
		}
	}
}

// TestBlockedPruningParity: the blocked kernels must never abandon a
// candidate the scalar kernels keep — whenever the scalar result is within
// the bound, the blocked kernel must have completed the full computation and
// returned the true distance (within 1e-9). This includes the adversarial
// case bound == true distance, where a reassociated partial sum can sit one
// ulp above the bound (absorbed by the kernels' relative slack).
func TestBlockedPruningParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 129; n++ {
		q, c := randPair(n, rng)
		ord := NewOrder(q)
		full := SquaredDist(q, c)
		tol := 1e-9 * (1 + full)
		for _, bound := range []float64{0, full * 0.25, full * 0.5, full, full * 2, math.Inf(1)} {
			scalar := SquaredDistEA(q, c, bound)
			blocked := SquaredDistEABlocked(q, c, bound)
			if scalar <= bound && math.Abs(blocked-full) > tol {
				t.Errorf("n=%d bound=%v: blocked abandoned (%v) a candidate scalar keeps (%v, full %v)",
					n, bound, blocked, scalar, full)
			}
			if blocked <= bound && math.Abs(blocked-full) > tol {
				t.Errorf("n=%d bound=%v: kept candidate has dist %v, want %v", n, bound, blocked, full)
			}

			scalarOrd := SquaredDistEAOrdered(q, c, ord, bound)
			blockedOrd := SquaredDistEAOrderedBlocked(q, c, ord, bound)
			if scalarOrd <= bound && math.Abs(blockedOrd-full) > tol {
				t.Errorf("n=%d bound=%v: ordered blocked abandoned (%v) a candidate scalar keeps (%v, full %v)",
					n, bound, blockedOrd, scalarOrd, full)
			}
			if blockedOrd <= bound && math.Abs(blockedOrd-full) > tol {
				t.Errorf("n=%d bound=%v: kept candidate has ordered dist %v, want %v", n, bound, blockedOrd, full)
			}
		}
	}
}

// TestBlockedAbandonExceedsBound: like the scalar kernels, an abandoned
// computation must return a partial sum strictly above the bound, so callers
// can use `d > bound` to detect pruning.
func TestBlockedAbandonExceedsBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 129; n++ {
		q, c := randPair(n, rng)
		ord := NewOrder(q)
		full := SquaredDist(q, c)
		bound := full * 0.5
		if got := SquaredDistEABlocked(q, c, bound); got <= bound {
			t.Errorf("n=%d: blocked returned %v <= bound %v but full dist is %v", n, got, bound, full)
		}
		if got := SquaredDistEAOrderedBlocked(q, c, ord, bound); got <= bound {
			t.Errorf("n=%d: ordered blocked returned %v <= bound %v but full dist is %v", n, got, bound, full)
		}
	}
}

func TestBlockedMismatchedLengthsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"blocked": func() { SquaredDistEABlocked(make(Series, 3), make(Series, 4), 1) },
		"ordered": func() {
			SquaredDistEAOrderedBlocked(make(Series, 3), make(Series, 4), NewOrder(make(Series, 3)), 1)
		},
		"ordered, order of another length": func() {
			SquaredDistEAOrderedBlocked(make(Series, 32), make(Series, 32), NewOrder(make(Series, 48)), 1)
		},
		"scalar ordered, order of another length": func() {
			SquaredDistEAOrdered(make(Series, 32), make(Series, 32), NewOrder(make(Series, 16)), 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on mismatched lengths", name)
				}
			}()
			f()
		}()
	}
}

// TestBlockedNeverLosesNeighbour is the property exact search rests on, for
// random Z-normalized pairs of every block-remainder length: a candidate
// whose true squared distance is within the bound is never abandoned (the
// kernel returns its full sum, which exceeds the bound by at most the
// reassociation slack), and whenever the kernel does abandon, what it
// returns is strictly above the bound. The bounds include the adversarial
// ones: the true distance itself, the kernel's own full sum and one ulp
// below it. It runs on whichever backend the build selects, so the purego
// job covers the Go twin and every other job the assembly.
func TestBlockedNeverLosesNeighbour(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inf := math.Inf(1)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(130)
		q, c := randPair(n, rng)
		q.ZNormalize()
		c.ZNormalize()
		ord := NewOrder(q)
		truth := SquaredDistEA(q, c, inf)
		kernels := []struct {
			name string
			dist func(bound float64) float64
		}{
			{"blocked", func(bound float64) float64 { return SquaredDistEABlocked(q, c, bound) }},
			{"ordered blocked", func(bound float64) float64 { return SquaredDistEAOrderedBlocked(q, c, ord, bound) }},
		}
		for _, kern := range kernels {
			full := kern.dist(inf)
			bounds := []float64{
				0, truth, full, math.Nextafter(full, 0), math.Nextafter(truth, inf),
				truth * rng.Float64(), truth * (1 + rng.Float64()), inf,
			}
			for _, bound := range bounds {
				got := kern.dist(bound)
				abandoned := math.Float64bits(got) != math.Float64bits(full)
				if truth <= bound && (abandoned || got > bound*(1+1e-9)) {
					t.Fatalf("%s n=%d bound=%v: returned %v for a candidate at true distance %v (full sum %v)",
						kern.name, n, bound, got, truth, full)
				}
				if abandoned && !(got > bound) {
					t.Fatalf("%s n=%d bound=%v: abandoned with partial sum %v, not above the bound",
						kern.name, n, bound, got)
				}
			}
		}
	}
}
