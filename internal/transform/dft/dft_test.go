package dft

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/series"
	"hydra/internal/transform/fft"
)

func randNorm(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s.ZNormalize()
}

func TestNewCapsDims(t *testing.T) {
	tr := New(16, 100)
	if tr.Dims() > 15 {
		t.Errorf("Dims=%d should be capped below n", tr.Dims())
	}
	if New(16, 0).Dims() != 1 {
		t.Errorf("dims should clamp to at least 1")
	}
	if tr.SeriesLen() != 16 {
		t.Errorf("SeriesLen=%d", tr.SeriesLen())
	}
}

// TestLowerBoundProperty is the core contract: feature distance never
// exceeds series distance, for any length (incl. non-pow2) and dims.
func TestLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(200)
		dims := 1 + rng.Intn(2*n)
		tr := New(n, dims)
		a, b := randNorm(rng, n), randNorm(rng, n)
		lb := LowerBound(tr.Apply(a), tr.Apply(b))
		d := series.SquaredDist(a, b)
		return lb <= d*(1+1e-6)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFullDimsTight: with all meaningful coefficients retained, the feature
// distance should approach the true distance (Parseval) on Z-normalized
// series.
func TestFullDimsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{16, 96, 128} {
		tr := New(n, n-1)
		a, b := randNorm(rng, n), randNorm(rng, n)
		lb := LowerBound(tr.Apply(a), tr.Apply(b))
		d := series.SquaredDist(a, b)
		if math.Abs(lb-d) > 1e-4*(1+d) {
			t.Errorf("n=%d: full-dim feature distance %g != %g", n, lb, d)
		}
	}
}

func TestApplyLengthMismatchPanics(t *testing.T) {
	tr := New(8, 4)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	tr.Apply(make(series.Series, 9))
}

func TestFeatureScalingMonotone(t *testing.T) {
	// More dims → larger (tighter) bound, monotonically.
	rng := rand.New(rand.NewSource(3))
	n := 64
	a, b := randNorm(rng, n), randNorm(rng, n)
	prev := 0.0
	for dims := 1; dims < n; dims += 4 {
		tr := New(n, dims)
		lb := LowerBound(tr.Apply(a), tr.Apply(b))
		if lb < prev-1e-12 {
			t.Fatalf("bound shrank when adding dims: %g -> %g at %d", prev, lb, dims)
		}
		prev = lb
	}
}

// applyReference is Apply as it was before ApplyInto: the whole spectrum
// from a full fft.Forward, the scale recomputed per feature.
func applyReference(n, dims int, s series.Series) []float64 {
	X := make([]complex128, n)
	for i, v := range s {
		X[i] = complex(float64(v), 0)
	}
	fft.Forward(X, n)
	out := make([]float64, dims)
	for d := 0; d < dims; d++ {
		k := d/2 + 1
		var raw float64
		if d%2 == 0 {
			raw = real(X[k])
		} else {
			raw = imag(X[k])
		}
		scale := math.Sqrt(2 / float64(n))
		if 2*k == n {
			scale = math.Sqrt(1 / float64(n))
		}
		out[d] = raw * scale
	}
	return out
}

// TestApplyIntoBitIdentical: the pruned, buffer-reusing transform returns
// the bits of the full one — even and odd dims, all dims (which reaches the
// Nyquist coefficient on even n), a Bluestein length — with the same buffers
// reused across series, as a build loop does.
func TestApplyIntoBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ n, dims int }{
		{256, 16}, {256, 15}, {256, 1}, {256, 2}, {64, 63}, {16, 15}, {2, 1},
		{96, 16}, {96, 95}, {97, 96},
	} {
		tr := New(tc.n, tc.dims)
		out := make([]float64, tr.Dims())
		buf := make([]complex128, tc.n+3) // longer than needed is allowed
		for rep := 0; rep < 20; rep++ {
			s := randNorm(rng, tc.n)
			want := applyReference(tc.n, tr.Dims(), s)
			got := tr.ApplyInto(s, out, buf)
			for d := range want {
				if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
					t.Fatalf("n=%d dims=%d feature %d: %v, reference %v", tc.n, tc.dims, d, got[d], want[d])
				}
			}
			if alloc := tr.Apply(s); math.Float64bits(alloc[0]) != math.Float64bits(want[0]) {
				t.Fatalf("n=%d dims=%d: Apply and ApplyInto disagree", tc.n, tc.dims)
			}
		}
	}
}

// TestApplyIntoAllocationFree: on a power-of-two length the transform runs
// entirely in the caller's buffers.
func TestApplyIntoAllocationFree(t *testing.T) {
	tr := New(256, 16)
	s := randNorm(rand.New(rand.NewSource(6)), 256)
	out, buf := make([]float64, 16), make([]complex128, 256)
	tr.ApplyInto(s, out, buf) // grows the shared twiddle table
	if avg := testing.AllocsPerRun(50, func() { tr.ApplyInto(s, out, buf) }); avg != 0 {
		t.Errorf("ApplyInto allocates %.1f times per call", avg)
	}
}

func BenchmarkApplyInto(b *testing.B) {
	tr := New(256, 16)
	s := randNorm(rand.New(rand.NewSource(6)), 256)
	out, buf := make([]float64, 16), make([]complex128, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.ApplyInto(s, out, buf)
	}
}
