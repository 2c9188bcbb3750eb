package sfa

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/dataset"
	"hydra/internal/series"
)

func trainOn(t *testing.T, n, length int, opts Options) (*Transform, *dataset.Dataset) {
	t.Helper()
	ds := dataset.RandomWalk(n, length, 11)
	tr, _, err := TrainAll(n, func(i int) series.Series { return ds.Series[i] }, length, opts)
	if err != nil {
		t.Fatalf("TrainAll: %v", err)
	}
	return tr, ds
}

// Word returns the SFA word of a feature vector.
func (t *Transform) Word(feat []float64) []uint8 {
	return t.WordInto(feat, make([]uint8, len(feat)))
}

func TestTrainDefaults(t *testing.T) {
	tr, _ := trainOn(t, 100, 64, Options{})
	if tr.Dims() != 16 {
		t.Errorf("Dims=%d want 16", tr.Dims())
	}
	if tr.Alphabet() != 8 {
		t.Errorf("Alphabet=%d want 8", tr.Alphabet())
	}
}

func TestTrainEmpty(t *testing.T) {
	if _, _, err := TrainAll(0, nil, 64, Options{}); err == nil {
		t.Errorf("expected error for empty training set")
	}
}

func TestWordInRange(t *testing.T) {
	tr, ds := trainOn(t, 200, 64, Options{Dims: 8, Alphabet: 8})
	for _, s := range ds.Series {
		w := tr.Word(tr.Features(s))
		if len(w) != 8 {
			t.Fatalf("word length %d", len(w))
		}
		for _, sym := range w {
			if int(sym) >= tr.Alphabet() {
				t.Fatalf("symbol %d out of alphabet", sym)
			}
		}
	}
}

func TestRegionContainsOwnValue(t *testing.T) {
	tr, ds := trainOn(t, 200, 64, Options{Dims: 8})
	for _, s := range ds.Series {
		f := tr.Features(s)
		w := tr.Word(f)
		for d := range w {
			lo, hi := tr.Region(d, w[d])
			if f[d] < lo || f[d] > hi {
				t.Fatalf("feature %g outside its region [%g,%g]", f[d], lo, hi)
			}
		}
	}
}

// TestMinDistLowerBoundProperty: the SFA prefix bound never exceeds the true
// Euclidean distance (no false dismissals), for both binnings and any prefix
// length.
func TestMinDistLowerBoundProperty(t *testing.T) {
	for _, binning := range []Binning{EquiDepth, EquiWidth} {
		binning := binning
		t.Run(binning.String(), func(t *testing.T) {
			tr, ds := trainOn(t, 300, 96, Options{Dims: 12, Binning: binning})
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				q := make(series.Series, 96)
				for i := range q {
					q[i] = float32(rng.NormFloat64())
				}
				q.ZNormalize()
				qf := tr.Features(q)
				c := ds.Series[rng.Intn(len(ds.Series))]
				w := tr.Word(tr.Features(c))
				prefix := 1 + rng.Intn(len(w))
				lb := tr.MinDistPrefix(qf, w[:prefix])
				d := series.SquaredDist(q, c)
				return lb <= d*(1+1e-6)+1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestMinDistPrefixMonotone: longer prefixes can only tighten the bound.
func TestMinDistPrefixMonotone(t *testing.T) {
	tr, ds := trainOn(t, 100, 64, Options{Dims: 10})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		q := ds.Series[rng.Intn(len(ds.Series))]
		c := ds.Series[rng.Intn(len(ds.Series))]
		qf := tr.Features(q)
		w := tr.Word(tr.Features(c))
		prev := 0.0
		for p := 1; p <= len(w); p++ {
			lb := tr.MinDistPrefix(qf, w[:p])
			if lb < prev-1e-12 {
				t.Fatalf("prefix %d bound %g < prefix %d bound %g", p, lb, p-1, prev)
			}
			prev = lb
		}
	}
}

func TestEquiDepthBreakpointsBalanced(t *testing.T) {
	tr, ds := trainOn(t, 1000, 64, Options{Dims: 4, Alphabet: 4, Binning: EquiDepth})
	counts := make([]int, 4)
	for _, s := range ds.Series {
		w := tr.Word(tr.Features(s))
		counts[w[0]]++
	}
	// Equi-depth: each symbol of dimension 0 should hold roughly 1/4 of the
	// training data (generous tolerance).
	for sym, c := range counts {
		frac := float64(c) / float64(len(ds.Series))
		if math.Abs(frac-0.25) > 0.12 {
			t.Errorf("symbol %d holds %.0f%% of data, want ~25%%", sym, frac*100)
		}
	}
}

func TestSampleSizeTraining(t *testing.T) {
	// Training on a sample must still produce valid lower bounds.
	tr, ds := trainOn(t, 500, 64, Options{Dims: 8, SampleSize: 50})
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		a := ds.Series[rng.Intn(len(ds.Series))]
		b := ds.Series[rng.Intn(len(ds.Series))]
		lb := tr.MinDistPrefix(tr.Features(a), tr.Word(tr.Features(b)))
		d := series.SquaredDist(a, b)
		if lb > d*(1+1e-6)+1e-9 {
			t.Fatalf("sampled training broke the lower bound: %g > %g", lb, d)
		}
	}
}
