package sax

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hydra/internal/series"
	"hydra/internal/transform/paa"
)

func randSeries(rng *rand.Rand, n int) series.Series {
	s := make(series.Series, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func TestSymbolMonotone(t *testing.T) {
	q := NewQuantizer()
	prev := q.Symbol(-10)
	for v := -10.0; v <= 10; v += 0.01 {
		sym := q.Symbol(v)
		if sym < prev {
			t.Fatalf("symbols not monotone at %g", v)
		}
		prev = sym
	}
	if q.Symbol(-100) != 0 {
		t.Errorf("far-left symbol should be 0")
	}
	if q.Symbol(100) != 255 {
		t.Errorf("far-right symbol should be 255")
	}
}

func TestRegionContainsValue(t *testing.T) {
	q := NewQuantizer()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := rng.NormFloat64() * 2
		sym := q.Symbol(v)
		for bits := uint8(1); bits <= MaxBits; bits++ {
			lo, hi := q.Region(sym>>(MaxBits-bits), bits)
			if v < lo || v > hi {
				t.Fatalf("value %g outside region [%g,%g] at bits %d", v, lo, hi, bits)
			}
		}
	}
}

func TestRegionNesting(t *testing.T) {
	// Regions at higher cardinality must be contained in coarser ones (the
	// iSAX split invariant).
	q := NewQuantizer()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		sym := uint8(rng.Intn(256))
		for bits := uint8(1); bits < MaxBits; bits++ {
			lo1, hi1 := q.Region(sym>>(MaxBits-bits), bits)
			lo2, hi2 := q.Region(sym>>(MaxBits-bits-1), bits+1)
			if lo2 < lo1 || hi2 > hi1 {
				t.Fatalf("region at %d bits not nested in %d bits for symbol %d", bits+1, bits, sym)
			}
		}
	}
}

func TestWordSymbolAtAndMatches(t *testing.T) {
	w := NewWord(4, 8)
	w.Symbols = []uint8{0b10110000, 0b00000001, 0xFF, 0x00}
	if w.SymbolAt(0) != 0b10110000 {
		t.Errorf("SymbolAt(0)=%d", w.SymbolAt(0))
	}
	w.Bits = []uint8{3, 8, 1, 2}
	if w.SymbolAt(0) != 0b101 {
		t.Errorf("SymbolAt(0) at 3 bits = %d want 0b101", w.SymbolAt(0))
	}
	full := []uint8{0b10111111, 0b00000001, 0x80, 0x3F}
	if !w.Matches(full) {
		t.Errorf("word should match compatible full symbols")
	}
	full[0] = 0b01011111
	if w.Matches(full) {
		t.Errorf("word should not match incompatible symbols")
	}
}

func TestWordClone(t *testing.T) {
	w := NewWord(3, 4)
	c := w.Clone()
	c.Symbols[0] = 99
	c.Bits[1] = 7
	if w.Symbols[0] == 99 || w.Bits[1] == 7 {
		t.Errorf("Clone aliases original")
	}
	if w.String() == "" {
		t.Errorf("String should render something")
	}
}

// MinDist returns the squared lower-bounding distance between a query's PAA
// vector and the iSAX word w, given the per-segment widths of the PAA
// transform: for each segment the distance from the query PAA value to the
// breakpoint region of the symbol, squared and weighted by segment width.
func (q *Quantizer) MinDist(queryPAA []float64, w Word, widths []float64) float64 {
	var sum float64
	for i, v := range queryPAA {
		lo, hi := q.Region(w.Symbols[i]>>(MaxBits-w.Bits[i]), w.Bits[i])
		var d float64
		switch {
		case v < lo:
			d = lo - v
		case v > hi:
			d = v - hi
		}
		sum += widths[i] * (d * d)
	}
	return sum
}

// TestMinDistLowerBoundProperty: the iSAX MINDIST never exceeds the true
// distance, at any cardinality.
func TestMinDistLowerBoundProperty(t *testing.T) {
	q := NewQuantizer()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(124)
		seg := 1 + rng.Intn(16)
		if seg > n {
			seg = n
		}
		tr := paa.New(n, seg)
		a, b := randSeries(rng, n).ZNormalize(), randSeries(rng, n).ZNormalize()
		pa, pb := tr.Apply(a), tr.Apply(b)
		w := NewWord(seg, uint8(1+rng.Intn(8)))
		for i := range pb {
			w.Symbols[i] = q.Symbol(pb[i])
		}
		lb := q.MinDist(pa, w, tr.Widths())
		d := series.SquaredDist(a, b)
		return lb <= d*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestMinDistFullCardMatchesWord: the ADS+ fast path must agree with the
// generic word MINDIST at 8 bits.
func TestMinDistFullCardMatchesWord(t *testing.T) {
	q := NewQuantizer()
	rng := rand.New(rand.NewSource(3))
	tr := paa.New(64, 8)
	for i := 0; i < 100; i++ {
		a, b := randSeries(rng, 64), randSeries(rng, 64)
		pa, pb := tr.Apply(a), tr.Apply(b)
		w := NewWord(8, 8)
		syms := make([]uint8, 8)
		for j := range pb {
			syms[j] = q.Symbol(pb[j])
			w.Symbols[j] = syms[j]
		}
		got := q.MinDistFullCard(pa, syms, tr.Widths())
		want := q.MinDist(pa, w, tr.Widths())
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("full-card mindist %g != word mindist %g", got, want)
		}
	}
}

// TestMinDistFullCardTableMatchesFullCard: the one-series table sum iSAX2+
// filters leaf members with is MinDistFullCard to the bit, edge symbols
// included.
func TestMinDistFullCardTableMatchesFullCard(t *testing.T) {
	q := NewQuantizer()
	rng := rand.New(rand.NewSource(4))
	tr := paa.New(64, 8)
	table := make([]float64, TableLen(8))
	syms := make([]uint8, 8)
	for i := 0; i < 200; i++ {
		pa := tr.Apply(randSeries(rng, 64))
		q.MinDistTable(pa, tr.Widths(), table)
		for j := range syms {
			syms[j] = uint8(rng.Intn(256))
			if rng.Intn(8) == 0 {
				syms[j] = uint8(255 * rng.Intn(2))
			}
		}
		got := MinDistFullCardTable(table, syms)
		want := q.MinDistFullCard(pa, syms, tr.Widths())
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("table mindist %v != full-card mindist %v for symbols %v", got, want, syms)
		}
	}
}

func TestRegionPanicsOnBadBits(t *testing.T) {
	q := NewQuantizer()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for bits=0")
		}
	}()
	q.Region(0, 0)
}
