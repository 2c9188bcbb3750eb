package paa

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

func TestApplyMeans(t *testing.T) {
	tr := New(8, 4)
	s := series.Series{1, 1, 2, 2, 3, 3, 4, 4}
	got := tr.Apply(s)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("segment %d: %g want %g", i, got[i], want[i])
		}
	}
}

func TestUnevenSegments(t *testing.T) {
	tr := New(10, 3) // widths 3,4,3 per the i*n/seg rule: ends 3,6,10 → 3,3,4
	w := tr.Widths()
	var total float64
	for _, v := range w {
		total += v
	}
	if total != 10 {
		t.Errorf("widths %v sum to %g, want 10", w, total)
	}
	if tr.Segments() != 3 {
		t.Errorf("Segments=%d want 3", tr.Segments())
	}
}

func TestSegCappedAtN(t *testing.T) {
	tr := New(4, 100)
	if tr.Segments() != 4 {
		t.Errorf("segments %d, want capped at 4", tr.Segments())
	}
}

// TestLowerBoundProperty is the fundamental guarantee:
// PAA distance ≤ Euclidean distance (no false dismissals).
func TestLowerBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		seg := 1 + rng.Intn(n)
		tr := New(n, seg)
		a, b := randSeries(rng, n), randSeries(rng, n)
		lb := tr.LowerBound(tr.Apply(a), tr.Apply(b))
		d := series.SquaredDist(a, b)
		return lb <= d*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLowerBoundToRectProperty: the MINDIST to a rectangle containing b's
// PAA lower-bounds the true distance.
func TestLowerBoundToRectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		seg := 1 + rng.Intn(n)
		tr := New(n, seg)
		a, b := randSeries(rng, n), randSeries(rng, n)
		pb := tr.Apply(b)
		lo := make([]float64, len(pb))
		hi := make([]float64, len(pb))
		for i := range pb {
			lo[i] = pb[i] - rng.Float64()
			hi[i] = pb[i] + rng.Float64()
		}
		lb := tr.LowerBoundToRect(tr.Apply(a), lo, hi)
		d := series.SquaredDist(a, b)
		return lb <= d*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLowerBoundTightForConstantSegments(t *testing.T) {
	// When both series are piecewise constant on the segments, the PAA
	// lower bound equals the true distance.
	tr := New(8, 4)
	a := series.Series{1, 1, 5, 5, 2, 2, 0, 0}
	b := series.Series{3, 3, 1, 1, 2, 2, 4, 4}
	lb := tr.LowerBound(tr.Apply(a), tr.Apply(b))
	d := series.SquaredDist(a, b)
	if math.Abs(lb-d) > 1e-9 {
		t.Errorf("lb %g != dist %g for piecewise-constant input", lb, d)
	}
}
