package eapca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/series"
	"hydra/internal/simd"
)

func randSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestPrefixMeanStd(t *testing.T) {
	s := series.Series{1, 2, 3, 4, 5, 6}
	p := NewPrefix(s)
	mean, std := p.MeanStd(0, 6)
	if math.Abs(mean-3.5) > 1e-12 {
		t.Errorf("mean %g want 3.5", mean)
	}
	wantStd := series.Series{1, 2, 3, 4, 5, 6}.Std()
	if math.Abs(std-wantStd) > 1e-9 {
		t.Errorf("std %g want %g", std, wantStd)
	}
	mean, std = p.MeanStd(2, 4) // values 3,4
	if math.Abs(mean-3.5) > 1e-12 || math.Abs(std-0.5) > 1e-9 {
		t.Errorf("segment stats (%g,%g), want (3.5,0.5)", mean, std)
	}
	if m, sd := p.MeanStd(3, 3); m != 0 || sd != 0 {
		t.Errorf("empty segment should be (0,0)")
	}
}

func TestPrefixMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randSeries(rng, 100)
	p := NewPrefix(s)
	for trial := 0; trial < 50; trial++ {
		lo := rng.Intn(99)
		hi := lo + 1 + rng.Intn(100-lo-1)
		seg := s[lo:hi]
		wantM := series.Series(seg).Mean()
		wantS := series.Series(seg).Std()
		m, sd := p.MeanStd(lo, hi)
		if math.Abs(m-wantM) > 1e-6 || math.Abs(sd-wantS) > 1e-5 {
			t.Fatalf("[%d,%d): got (%g,%g) want (%g,%g)", lo, hi, m, sd, wantM, wantS)
		}
	}
}

// segmentLB is Σ_i w_i·((mx_i−my_i)² + (sx_i−sy_i)²), the lower bound of
// the package docs, evaluated by the kernel the DSTree prunes with: a node
// whose mean and std ranges have collapsed to y's values.
func segmentLB(w, mx, sx, my, sy []float64) float64 {
	return simd.EAPCABound(mx, sx, w, my, my, sy, sy)
}

// TestSegmentBoundsProperty: the reverse triangle inequality that powers all
// DSTree pruning, verified against true distances.
func TestSegmentBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(100)
		x, y := randSeries(rng, w), randSeries(rng, w)
		mx, sx := NewPrefix(x).MeanStd(0, w)
		my, sy := NewPrefix(y).MeanStd(0, w)
		lb := segmentLB([]float64{float64(w)}, []float64{mx}, []float64{sx}, []float64{my}, []float64{sy})
		return lb <= series.SquaredDist(x, y)*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMultiSegmentLB: summing segment lower bounds over any segmentation
// still lower-bounds the full distance.
func TestMultiSegmentLB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		n := 8 + rng.Intn(120)
		x, y := randSeries(rng, n), randSeries(rng, n)
		// random segmentation
		var ends []int
		pos := 0
		for pos < n {
			pos += 1 + rng.Intn(n/4+1)
			if pos > n {
				pos = n
			}
			ends = append(ends, pos)
		}
		sx := Compute(NewPrefix(x), ends)
		sy := Compute(NewPrefix(y), ends)
		w := make([]float64, len(ends))
		lo := 0
		for i, hi := range ends {
			w[i] = float64(hi - lo)
			lo = hi
		}
		lb := segmentLB(w, sx.Mean, sx.Std, sy.Mean, sy.Std)
		d := series.SquaredDist(x, y)
		if lb > d*(1+1e-9)+1e-9 {
			t.Fatalf("segmentation %v: lb %g > dist %g", ends, lb, d)
		}
	}
}

func TestComputeSynopsis(t *testing.T) {
	s := series.Series{1, 1, 3, 3}
	syn := Compute(NewPrefix(s), []int{2, 4})
	if syn.Mean[0] != 1 || syn.Mean[1] != 3 {
		t.Errorf("means %v", syn.Mean)
	}
	if syn.Std[0] != 0 || syn.Std[1] != 0 {
		t.Errorf("stds %v", syn.Std)
	}
}
