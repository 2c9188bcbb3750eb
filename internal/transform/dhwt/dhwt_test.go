package dhwt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/series"
)

func randSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// TestOrthonormality: the transform preserves Euclidean distances exactly —
// the property Stepwise's bounds depend on.
func TestOrthonormality(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 96, 128, 100} {
		a, b := randSeries(rng, n), randSeries(rng, n)
		ta, tb := Transform(a), Transform(b)
		var dc float64
		for i := range ta {
			d := ta[i] - tb[i]
			dc += d * d
		}
		dt := series.SquaredDist(a, b)
		if math.Abs(dc-dt) > 1e-6*(1+dt) {
			t.Errorf("n=%d: coefficient distance %g != time distance %g", n, dc, dt)
		}
	}
}

// inverse reconstructs the padded series from Transform's coefficients:
// the reference that shows Transform loses nothing.
func inverse(coeffs []float64) []float64 {
	cur := coeffs[:1]
	for pos := 1; pos < len(coeffs); {
		det := coeffs[pos : pos+len(cur)]
		pos += len(cur)
		next := make([]float64, 2*len(cur))
		for i, a := range cur {
			next[2*i] = (a + det[i]) / math.Sqrt2
			next[2*i+1] = (a - det[i]) / math.Sqrt2
		}
		cur = next
	}
	return cur
}

// TestInverseRoundTrip reconstructs the padded series.
func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 4, 16, 128} {
		s := randSeries(rng, n)
		back := inverse(Transform(s))
		if len(back) < n {
			t.Fatalf("n=%d: inverse length %d", n, len(back))
		}
		for i := 0; i < n; i++ {
			if math.Abs(back[i]-float64(s[i])) > 1e-9 {
				t.Fatalf("n=%d: index %d: %g vs %g", n, i, back[i], s[i])
			}
		}
		for i := n; i < len(back); i++ {
			if math.Abs(back[i]) > 1e-9 {
				t.Fatalf("n=%d: padding index %d not zero: %g", n, i, back[i])
			}
		}
	}
}

// TestEnergyPreservationProperty (Parseval for Haar).
func TestEnergyPreservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		s := randSeries(rng, n)
		coeffs := Transform(s)
		var ec float64
		for _, v := range coeffs {
			ec += v * v
		}
		et := series.SumSquares(s)
		return math.Abs(ec-et) < 1e-6*(1+et)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLevels(t *testing.T) {
	if Levels(1) != 1 {
		t.Errorf("Levels(1)=%d want 1", Levels(1))
	}
	if Levels(256) != 9 {
		t.Errorf("Levels(256)=%d want 9", Levels(256))
	}
	if Levels(96) != Levels(128) {
		t.Errorf("padding should make Levels(96)==Levels(128)")
	}
}

func TestLevelRangeLayout(t *testing.T) {
	// Level ranges must tile [0, n) contiguously.
	n := 128
	pos := 0
	for lvl := 0; lvl < Levels(n); lvl++ {
		lo, hi := LevelRange(lvl)
		if lo != pos {
			t.Fatalf("level %d starts at %d, want %d", lvl, lo, pos)
		}
		pos = hi
	}
	if pos != n {
		t.Fatalf("levels cover %d coefficients, want %d", pos, n)
	}
}

func TestTransformMeanCoefficient(t *testing.T) {
	// The first coefficient is the scaled mean: mean * sqrt(n).
	s := series.Series{2, 2, 2, 2}
	coeffs := Transform(s)
	if math.Abs(coeffs[0]-4) > 1e-9 { // 2 * sqrt(4)
		t.Errorf("approximation coefficient %g, want 4", coeffs[0])
	}
	for i := 1; i < len(coeffs); i++ {
		if math.Abs(coeffs[i]) > 1e-12 {
			t.Errorf("constant series detail %d = %g, want 0", i, coeffs[i])
		}
	}
}
