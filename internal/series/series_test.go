package series

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/simd"
)

func randSeries(rng *rand.Rand, n int) Series {
	s := make(Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestMeanStd(t *testing.T) {
	s := Series{1, 2, 3, 4}
	if got := s.Mean(); got != 2.5 {
		t.Errorf("Mean=%v want 2.5", got)
	}
	want := math.Sqrt(1.25)
	if got := s.Std(); math.Abs(got-want) > 1e-12 {
		t.Errorf("Std=%v want %v", got, want)
	}
	var empty Series
	if empty.Mean() != 0 || empty.Std() != 0 {
		t.Errorf("empty series should have 0 mean/std")
	}
}

func TestZNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		s := randSeries(rng, 64)
		for j := range s {
			s[j] = s[j]*3 + 7
		}
		s.ZNormalize()
		if !s.IsZNormalized(1e-3) {
			t.Fatalf("series not normalized: mean=%v std=%v", s.Mean(), s.Std())
		}
	}
}

func TestZNormalizeConstant(t *testing.T) {
	s := Series{5, 5, 5, 5}
	s.ZNormalize()
	for i, v := range s {
		if v != 0 {
			t.Errorf("constant series index %d = %v, want 0", i, v)
		}
	}
	if !s.IsZNormalized(1e-6) {
		t.Errorf("all-zero series should count as normalized")
	}
}

func TestSquaredDist(t *testing.T) {
	q := Series{0, 0, 0}
	c := Series{1, 2, 2}
	if got := SquaredDist(q, c); got != 9 {
		t.Errorf("SquaredDist=%v want 9", got)
	}
	if got := Dist(q, c); got != 3 {
		t.Errorf("Dist=%v want 3", got)
	}
}

func TestSquaredDistMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on mismatched lengths")
		}
	}()
	SquaredDist(Series{1}, Series{1, 2})
}

// Property: early abandoning never under-reports when it completes, and when
// it abandons the partial sum already exceeds the bound.
func TestSquaredDistEAProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		q, c := randSeries(r, n), randSeries(r, n)
		exact := SquaredDist(q, c)
		bound := r.Float64() * exact * 2
		got := SquaredDistEA(q, c, bound)
		if got <= bound {
			return math.Abs(got-exact) < 1e-9*(1+exact)
		}
		return got > bound
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: reordered early abandoning computes the exact distance when the
// bound is infinite, regardless of the order.
func TestSquaredDistEAOrderedExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		n := 1 + rng.Intn(64)
		q, c := randSeries(rng, n), randSeries(rng, n)
		ord := NewOrder(q)
		exact := SquaredDist(q, c)
		got := SquaredDistEAOrdered(q, c, ord, math.Inf(1))
		if math.Abs(got-exact) > 1e-9*(1+exact) {
			t.Fatalf("ordered EA distance %v != exact %v", got, exact)
		}
	}
}

// TestNewOrderIsPermutation pins the block-granular order contract: a
// permutation of [0,n) whose every aligned run of 16 steps is one whole
// aligned block in ascending position, blocks by non-increasing energy with
// ties by position, and the n%16 tail sequential at the end.
func TestNewOrderIsPermutation(t *testing.T) {
	const bl = simd.BlockLen
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 3*bl+bl-1; n++ {
		q := randSeries(rng, n)
		if n >= 3*bl {
			// Equal-energy blocks: the tie must fall back to position.
			copy(q[2*bl:3*bl], q[:bl])
		}
		for _, ord := range []Order{NewOrder(q), new(OrderBuilder).Build(q)} {
			if ord.Len() != n {
				t.Fatalf("n=%d: order length %d", n, ord.Len())
			}
			seen := make([]bool, n)
			for k := 0; k < n; k++ {
				i := ord.At(k)
				if i < 0 || i >= n || seen[i] {
					t.Fatalf("n=%d: step %d visits %d: not a permutation", n, k, i)
				}
				seen[i] = true
			}
			whole := n - n%bl
			for k := 0; k < whole; k += bl {
				start := ord.At(k)
				if start%bl != 0 {
					t.Fatalf("n=%d: block at step %d starts at %d, not a multiple of %d", n, k, start, bl)
				}
				for j := 1; j < bl; j++ {
					if ord.At(k+j) != start+j {
						t.Fatalf("n=%d: block at step %d is not contiguous ascending", n, k)
					}
				}
				if k == 0 {
					continue
				}
				prev := ord.At(k - bl)
				ePrev, e := SumSquares(q[prev:prev+bl]), SumSquares(q[start:start+bl])
				if ePrev < e || (ePrev == e && prev > start) {
					t.Fatalf("n=%d: block %d (energy %v) before block %d (energy %v)", n, prev, ePrev, start, e)
				}
			}
			for k := whole; k < n; k++ {
				if ord.At(k) != k {
					t.Fatalf("n=%d: tail step %d visits %d", n, k, ord.At(k))
				}
			}
		}
	}
}

// TestOrderBuilderReuse: a builder that has served a longer query must build
// the same order for a shorter one as a fresh builder does.
func TestOrderBuilderReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b OrderBuilder
	for _, n := range []int{256, 40, 96, 7, 256} {
		q := randSeries(rng, n)
		got, want := b.Build(q), NewOrder(q)
		for k := 0; k < n; k++ {
			if got.At(k) != want.At(k) {
				t.Fatalf("n=%d: reused builder diverges at step %d", n, k)
			}
		}
	}
}

func TestSumSquares(t *testing.T) {
	q := Series{1, 2, 3}
	if got := SumSquares(q); got != 14 {
		t.Errorf("SumSquares=%v want 14", got)
	}
}

func TestClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Errorf("Clone aliases the original")
	}
}
