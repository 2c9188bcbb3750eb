package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// FFT computes the in-place-sized forward DFT of x and returns the result in
// a new slice: X[k] = Σ_j x[j]·e^(−2πi·jk/n). The input is not modified.
func FFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	copy(out, x)
	if n <= 1 {
		return out
	}
	Forward(out, n)
	return out
}

// FFTReal computes the forward DFT of a real-valued input.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return FFT(c)
}

// naiveDFT is the O(n²) reference implementation.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			out[k] += x[j] * cmplx.Exp(complex(0, ang))
		}
	}
	return out
}

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// TestFFTMatchesNaive covers power-of-two (radix-2) and arbitrary
// (Bluestein) sizes, including the Deep1B length 96.
func TestFFTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 96, 100, 128, 255} {
		x := randComplex(rng, n)
		got := FFT(x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-8*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

// TestIFFTRoundTrip: the inverse radix-2 transform Convolve applies,
// scaled by 1/n, undoes the forward one.
func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 8, 128, 256} {
		x := randComplex(rng, n)
		back := append([]complex128(nil), x...)
		radix2(back, false, n)
		radix2(back, true, n)
		for i := range back {
			back[i] /= complex(float64(n), 0)
		}
		if e := maxErr(back, x); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round-trip error %g", n, e)
		}
	}
}

// TestParseval: energy is preserved up to the 1/n convention.
func TestParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 96, 128} {
		x := randComplex(rng, n)
		X := FFT(x)
		var et, ef float64
		for i := range x {
			et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-8*(1+et) {
			t.Errorf("n=%d: Parseval violated: time %g freq %g", n, et, ef)
		}
	}
}

// TestFFTDoesNotMutateInput guards the documented contract.
func TestFFTDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randComplex(rng, 96)
	orig := append([]complex128{}, x...)
	FFT(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("input mutated at %d", i)
		}
	}
}

// TestFFTLinearityProperty: FFT(a·x + y) == a·FFT(x) + FFT(y).
func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64, scale float64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a := complex(math.Mod(scale, 10), 0)
		x, y := randComplex(rng, n), randComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		lhs := FFT(sum)
		fx, fy := FFT(x), FFT(y)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(a*fx[i]+fy[i])) > 1e-7*float64(n)*(1+cmplx.Abs(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConvolve validates the MASS core: sliding dot products.
func TestConvolve(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 50)
	q := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	out := Convolve(x, q)
	if len(out) != len(x) {
		t.Fatalf("Convolve output length %d, want %d", len(out), len(x))
	}
	m := len(q)
	for i := m - 1; i < len(x); i++ {
		var want float64
		for j := 0; j < m; j++ {
			want += q[j] * x[i-m+1+j]
		}
		if math.Abs(out[i]-want) > 1e-9 {
			t.Errorf("position %d: got %g want %g", i, out[i], want)
		}
	}
}

func TestFFTReal(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	X := FFTReal(x)
	// DC coefficient is the sum.
	if math.Abs(real(X[0])-10) > 1e-12 || math.Abs(imag(X[0])) > 1e-12 {
		t.Errorf("DC=%v want 10", X[0])
	}
	// Conjugate symmetry for real input.
	if cmplx.Abs(X[1]-cmplx.Conj(X[3])) > 1e-12 {
		t.Errorf("conjugate symmetry violated: %v vs %v", X[1], X[3])
	}
}

// radix2Recurrence is the transform as it was before the twiddle table: the
// factor of each butterfly is carried as a running product inside the loop.
// It is the reference the table-driven radix2 must match bit for bit.
func radix2Recurrence(a []complex128, inverse bool) {
	n := len(a)
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := a[i+j]
				v := a[i+j+half] * w
				a[i+j] = u + v
				a[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestRadix2TableBitIdentical: reading the twiddles from the table and
// skipping the butterflies beyond keep changes no bit of any kept output,
// forward or inverse, at every power-of-two size — visited largest first and
// then smallest first, so both a freshly grown table and a larger table
// serving a smaller transform are covered.
func TestRadix2TableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var sizes []int
	for n := 4096; n >= 2; n >>= 1 {
		sizes = append(sizes, n)
	}
	for n := 2; n <= 4096; n <<= 1 {
		sizes = append(sizes, n)
	}
	const dims = 16
	for _, n := range sizes {
		x := randComplex(rng, n)
		for _, inverse := range []bool{false, true} {
			want := append([]complex128(nil), x...)
			radix2Recurrence(want, inverse)
			for _, keep := range []int{1, 2, dims/2 + 1, n} {
				if keep > n {
					continue
				}
				got := append([]complex128(nil), x...)
				radix2(got, inverse, keep)
				for k := 0; k < keep; k++ {
					if !sameBits(got[k], want[k]) {
						t.Fatalf("n=%d inverse=%v keep=%d: X[%d] = %v, recurrence gives %v", n, inverse, keep, k, got[k], want[k])
					}
				}
			}
		}
	}
}

// TestForwardMatchesFFT pins Forward's contract on both paths: the kept
// prefix equals FFT's bit for bit on a power-of-two length and on a
// Bluestein length.
func TestForwardMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 96, 256} {
		x := randComplex(rng, n)
		want := FFT(x)
		for _, keep := range []int{1, n/2 + 1, n} {
			got := append([]complex128(nil), x...)
			Forward(got, keep)
			for k := 0; k < keep; k++ {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("n=%d keep=%d: X[%d] = %v, FFT gives %v", n, keep, k, got[k], want[k])
				}
			}
		}
	}
}

// TestTwiddleTableConcurrentGrowth grows the shared table from many
// goroutines at once (run under -race): every transform must still match
// the recurrence.
func TestTwiddleTableConcurrentGrowth(t *testing.T) {
	twiddleTable.Store(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for n := 2; n <= 2048; n <<= 1 {
				x := randComplex(rng, n)
				want := append([]complex128(nil), x...)
				radix2Recurrence(want, false)
				radix2(x, false, n)
				for k := range x {
					if !sameBits(x[k], want[k]) {
						t.Errorf("goroutine %d n=%d: X[%d] differs", g, n, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
