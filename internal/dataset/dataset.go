// Package dataset provides the data series collections and query workloads
// of the experimental study: the synthetic random-walk generator used
// throughout the paper, noise-controlled query workloads (Synth-Ctrl), and
// synthetic stand-ins for the paper's four real datasets (Seismic, Astro,
// SALD, Deep1B), whose originals are multi-hundred-GB archives that cannot be
// shipped here. Each stand-in mimics the statistical character that made its
// original easy or hard to summarize, which is what drives the paper's
// dataset-dependent results (each generator's doc comment names the property
// it reproduces).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"hydra/internal/series"
	"hydra/internal/storage"
)

// Dataset is an in-memory collection of equal-length, Z-normalized series.
//
// Collections produced by this package (generators, LoadFile, FromFlat) keep all
// series back-to-back in one flat aligned arena and expose them as views, so
// wrapping them in a simulated file (core.NewCollection) aliases the arena
// instead of copying, and replicas over one dataset share memory. Hand-built
// datasets that fill Series directly still work everywhere; they are copied
// into an arena at collection-wrapping time.
type Dataset struct {
	Name   string
	Series []series.Series
	// flat is the contiguous backing of Series when the dataset was built
	// arena-first (nil for hand-assembled datasets).
	flat []float32
}

// FromFlat builds a dataset over an existing flat backing of n series of the
// given length stored back-to-back; Series[i] becomes a capped view of
// flat[i*l:(i+1)*l]. The backing is aliased, not copied.
func FromFlat(name string, flat []float32, n, l int) *Dataset {
	if len(flat) != n*l {
		panic(fmt.Sprintf("dataset: flat backing of %d values cannot hold %d×%d series", len(flat), n, l))
	}
	d := &Dataset{Name: name, Series: make([]series.Series, n), flat: flat}
	for i := range d.Series {
		d.Series[i] = series.Series(flat[i*l : (i+1)*l : (i+1)*l])
	}
	return d
}

// newArenaDataset allocates an aligned arena for n series of length l and
// returns the dataset plus its series views, ready for the generator to
// fill (and Z-normalize) in place.
func newArenaDataset(name string, n, l int) *Dataset {
	return FromFlat(name, storage.NewArena(n*l), n, l)
}

// Flat returns the dataset's contiguous backing, or nil when the series are
// individually allocated. Callers must not mutate it.
//
// Rebinding Series entries after generation (tests do this to inject edge
// cases) detaches them from the backing; Flat detects that — every view
// must still alias its arena slot — and returns nil so collection wrapping
// falls back to copying the Series slices, which are the source of truth.
func (d *Dataset) Flat() []float32 {
	if d.flat == nil {
		return nil
	}
	l := d.SeriesLen()
	if len(d.flat) != len(d.Series)*l {
		return nil
	}
	for i, s := range d.Series {
		if len(s) != l || (l > 0 && &s[0] != &d.flat[i*l]) {
			return nil
		}
	}
	return d.flat
}

// Len returns the number of series in the collection.
func (d *Dataset) Len() int { return len(d.Series) }

// SeriesLen returns the length of each series (0 for an empty collection).
func (d *Dataset) SeriesLen() int {
	if len(d.Series) == 0 {
		return 0
	}
	return len(d.Series[0])
}

// SizeBytes returns the raw on-disk size the collection would occupy.
func (d *Dataset) SizeBytes() int64 {
	return int64(d.Len()) * int64(d.SeriesLen()) * 4
}

// NumSeriesForGB translates a paper-scale dataset size in GB into a number of
// series at the given scale factor. At scale 1 the counts match the paper
// exactly (1 GB of length-256 single-precision series ≈ 976k series); the
// default experiment scale (see Scale constants) shrinks collections so they
// run on one machine while preserving relative sizes.
func NumSeriesForGB(gb float64, length int, scale float64) int {
	n := int(math.Round(gb * 1e9 / (4 * float64(length)) * scale))
	if n < 16 {
		n = 16
	}
	return n
}

// Common scale factors for the experiment harness.
const (
	// ScaleDefault is the harness default: 1 GB-equivalent ≈ 953 series.
	ScaleDefault = 1.0 / 1024
	// ScaleQuick is used by unit benches and CI: 1 GB-equivalent ≈ 60 series.
	ScaleQuick = 1.0 / 16384
)

// RandomWalk generates n Z-normalized random-walk series of the given length:
// cumulative sums of N(0,1) steps, the generator used for all synthetic
// datasets in the paper ("claimed to model the distribution of stock market
// prices").
func RandomWalk(n, length int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := newArenaDataset("synthetic", n, length)
	for i := range d.Series {
		s := d.Series[i]
		var acc float64
		for j := range s {
			acc += rng.NormFloat64()
			s[j] = float32(acc)
		}
		s.ZNormalize()
	}
	return d
}

// Seismic simulates the IRIS seismic recordings: mostly quiet oscillation
// with occasional high-energy bursts (events), giving series whose energy is
// concentrated in short spans — summarizations describe them relatively well.
func Seismic(n, length int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := newArenaDataset("seismic", n, length)
	for i := range d.Series {
		s := d.Series[i]
		// AR(2) background with random burst envelope.
		var x1, x2 float64
		burstAt := rng.Intn(length)
		burstLen := length/8 + rng.Intn(length/4+1)
		burstAmp := 3 + 5*rng.Float64()
		for j := range s {
			x := 1.6*x1 - 0.8*x2 + rng.NormFloat64()*0.3
			x2, x1 = x1, x
			v := x
			if j >= burstAt && j < burstAt+burstLen {
				phase := float64(j-burstAt) / float64(burstLen)
				v *= 1 + burstAmp*math.Sin(math.Pi*phase)
			}
			s[j] = float32(v)
		}
		s.ZNormalize()
	}
	return d
}

// Astro simulates celestial-object light curves: a few superimposed periodic
// components plus observation noise. The strong periodicity concentrates
// energy in few Fourier coefficients.
func Astro(n, length int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := newArenaDataset("astro", n, length)
	for i := range d.Series {
		s := d.Series[i]
		k := 1 + rng.Intn(3)
		freqs := make([]float64, k)
		phases := make([]float64, k)
		amps := make([]float64, k)
		for c := 0; c < k; c++ {
			freqs[c] = (0.5 + 4*rng.Float64()) * 2 * math.Pi / float64(length)
			phases[c] = rng.Float64() * 2 * math.Pi
			amps[c] = 0.5 + rng.Float64()
		}
		for j := range s {
			var v float64
			for c := 0; c < k; c++ {
				v += amps[c] * math.Sin(freqs[c]*float64(j)+phases[c])
			}
			v += rng.NormFloat64() * 0.4
			s[j] = float32(v)
		}
		s.ZNormalize()
	}
	return d
}

// SALD simulates the MRI dataset: heavily smoothed low-frequency random
// walks. The paper's SALD series have length 128.
func SALD(n, length int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := newArenaDataset("sald", n, length)
	win := length / 16
	if win < 2 {
		win = 2
	}
	for i := range d.Series {
		raw := make([]float64, length+win)
		var acc float64
		for j := range raw {
			acc += rng.NormFloat64()
			raw[j] = acc
		}
		s := d.Series[i]
		// Moving-average smoothing removes high-frequency content.
		var sum float64
		for j := 0; j < win; j++ {
			sum += raw[j]
		}
		for j := range s {
			s[j] = float32(sum / float64(win))
			sum += raw[j+win] - raw[j]
		}
		s.ZNormalize()
	}
	return d
}

// Deep1B simulates the deep-descriptor dataset: vectors from the last layer
// of a CNN, modeled as noisy mixtures of a small number of shared latent
// factors. Neighboring dimensions are uncorrelated (unlike time series),
// which makes these the hardest collection to summarize — matching the
// paper's observation that Deep1B workloads have the lowest pruning ratios.
// The paper's Deep1B vectors have length 96.
func Deep1B(n, length int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	const factors = 8
	basis := make([][]float64, factors)
	for f := range basis {
		basis[f] = make([]float64, length)
		for j := range basis[f] {
			basis[f][j] = rng.NormFloat64()
		}
	}
	d := newArenaDataset("deep1b", n, length)
	for i := range d.Series {
		s := d.Series[i]
		w := make([]float64, factors)
		for f := range w {
			w[f] = rng.NormFloat64()
		}
		for j := range s {
			var v float64
			for f := 0; f < factors; f++ {
				v += w[f] * basis[f][j]
			}
			v += rng.NormFloat64() * 1.2
			s[j] = float32(v)
		}
		s.ZNormalize()
	}
	return d
}

// ByName generates one of the named collections ("synthetic", "seismic",
// "astro", "sald", "deep1b") with n series of the given length.
func ByName(name string, n, length int, seed int64) (*Dataset, error) {
	switch name {
	case "synthetic", "synth", "rw":
		return RandomWalk(n, length, seed), nil
	case "seismic":
		return Seismic(n, length, seed), nil
	case "astro":
		return Astro(n, length, seed), nil
	case "sald":
		return SALD(n, length, seed), nil
	case "deep1b", "deep":
		return Deep1B(n, length, seed), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}
