package vaq

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/transform/dft"
)

func trainQuantizer(t *testing.T, numSeries, length, dims, totalBits int) (*Quantizer, *dft.Transform, *dataset.Dataset) {
	t.Helper()
	ds := dataset.RandomWalk(numSeries, length, 21)
	tr := dft.New(length, dims)
	feats := make([][]float64, ds.Len())
	for i, s := range ds.Series {
		feats[i] = tr.Apply(s)
	}
	q, err := Train(feats, totalBits)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if err := q.ErrCheck(); err != nil {
		t.Fatalf("ErrCheck: %v", err)
	}
	return q, tr, ds
}

func TestTrainBitBudget(t *testing.T) {
	q, _, _ := trainQuantizer(t, 200, 64, 16, 128)
	if q.TotalBits() != 128 {
		t.Errorf("TotalBits=%d want 128", q.TotalBits())
	}
	if q.ApproxBytes() != 16 {
		t.Errorf("ApproxBytes=%d want 16", q.ApproxBytes())
	}
	if q.Dims() != 16 {
		t.Errorf("Dims=%d want 16", q.Dims())
	}
}

func TestNonUniformAllocation(t *testing.T) {
	// Random-walk series concentrate energy in low frequencies, so the VA+
	// allocation must give the first dimensions more bits than the last.
	q, _, _ := trainQuantizer(t, 500, 128, 16, 96)
	bits := q.Bits()
	firstTwo := bits[0] + bits[1]
	lastTwo := bits[14] + bits[15]
	if firstTwo <= lastTwo {
		t.Errorf("bit allocation not energy-weighted: first dims %d bits, last dims %d bits (%v)",
			firstTwo, lastTwo, bits)
	}
}

func TestEncodeInRange(t *testing.T) {
	q, tr, ds := trainQuantizer(t, 200, 64, 8, 48)
	for _, s := range ds.Series {
		code := q.Encode(tr.Apply(s))
		for d, c := range code {
			if int(c) >= 1<<q.Bits()[d] && q.Bits()[d] > 0 {
				t.Fatalf("dim %d: cell %d out of range for %d bits", d, c, q.Bits()[d])
			}
		}
	}
}

func TestRegionContainsOwnValue(t *testing.T) {
	q, tr, ds := trainQuantizer(t, 200, 64, 8, 48)
	for _, s := range ds.Series {
		f := tr.Apply(s)
		code := q.Encode(f)
		for d := range code {
			lo, hi := q.Region(d, code[d])
			if f[d] < lo || f[d] > hi {
				t.Fatalf("dim %d: value %g outside region [%g,%g]", d, f[d], lo, hi)
			}
		}
	}
}

// TestLowerBoundProperty: the VA+ cell bound never exceeds the true
// Euclidean distance — the guarantee behind the VA+file's exactness.
func TestLowerBoundProperty(t *testing.T) {
	q, tr, ds := trainQuantizer(t, 300, 96, 16, 96) // non-pow2 length
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		qs := make(series.Series, 96)
		for i := range qs {
			qs[i] = float32(rng.NormFloat64())
		}
		qs.ZNormalize()
		qf := tr.Apply(qs)
		c := ds.Series[rng.Intn(ds.Len())]
		code := q.Encode(tr.Apply(c))
		lb := q.LowerBound(qf, code)
		d := series.SquaredDist(qs, c)
		return lb <= d*(1+1e-6)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, 10); err == nil {
		t.Errorf("empty training set should error")
	}
	if _, err := Train([][]float64{{1, 2}, {1}}, 10); err == nil {
		t.Errorf("ragged features should error")
	}
}

func TestZeroBitDims(t *testing.T) {
	// With a tiny budget most dims get 0 bits; bounds must stay valid.
	q, tr, ds := trainQuantizer(t, 200, 64, 16, 8)
	zero := 0
	for _, b := range q.Bits() {
		if b == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Errorf("expected some 0-bit dimensions with an 8-bit budget")
	}
	a, b := ds.Series[0], ds.Series[1]
	lb := q.LowerBound(tr.Apply(a), q.Encode(tr.Apply(b)))
	if d := series.SquaredDist(a, b); lb > d*(1+1e-9)+1e-9 {
		t.Errorf("lb %g > dist %g with zero-bit dims", lb, d)
	}
}

func TestDFTFeatureLowerBound(t *testing.T) {
	// Feature-space distance itself must lower-bound series distance (this
	// is package dft's contract, exercised here at the integration point).
	ds := dataset.RandomWalk(100, 96, 3)
	tr := dft.New(96, 16)
	for i := 0; i+1 < ds.Len(); i += 2 {
		a, b := ds.Series[i], ds.Series[i+1]
		lb := dft.LowerBound(tr.Apply(a), tr.Apply(b))
		d := series.SquaredDist(a, b)
		if lb > d*(1+1e-6)+1e-9 {
			t.Fatalf("dft feature distance %g > series distance %g", lb, d)
		}
	}
	if math.IsNaN(dft.LowerBound(nil, nil)) {
		t.Errorf("empty lower bound should be 0")
	}
}
