// Package sfa implements the Symbolic Fourier Approximation of Schäfer &
// Högqvist: series are transformed to Fourier features, and each feature
// dimension is discretized against its own breakpoints learned from a sample
// (Multiple Coefficient Binning, MCB), with either equi-depth or equi-width
// binning. SFA words are the representation of the SFA trie.
package sfa

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/series"
	"hydra/internal/transform/dft"
)

// Binning selects the MCB discretization scheme.
type Binning int

const (
	// EquiDepth places breakpoints at sample quantiles (the paper found
	// equi-depth with alphabet 8 to perform best).
	EquiDepth Binning = iota
	// EquiWidth places breakpoints uniformly across the sample value range.
	EquiWidth
)

// String names the binning scheme as the ablation tables print it.
func (b Binning) String() string {
	if b == EquiWidth {
		return "equi-width"
	}
	return "equi-depth"
}

// Options configures SFA training.
type Options struct {
	// Dims is the SFA word length l (number of real Fourier features).
	Dims int
	// Alphabet is the number of symbols per dimension (default 8).
	Alphabet int
	// Binning selects equi-depth (default) or equi-width MCB.
	Binning Binning
	// SampleSize bounds how many series are used to learn breakpoints
	// (0 = all).
	SampleSize int
}

func (o *Options) setDefaults() {
	if o.Dims <= 0 {
		o.Dims = 16
	}
	if o.Alphabet <= 1 {
		o.Alphabet = 8
	}
}

// Transform maps series to SFA words.
type Transform struct {
	dft      *dft.Transform
	alphabet int
	binning  Binning
	// bps[d] holds alphabet-1 increasing breakpoints for dimension d.
	bps [][]float64
}

// TrainAll learns MCB breakpoints from (a sample of) a collection of n
// series for an index that keeps every series' Fourier features: it
// transforms each series once (at(i) is series i), returns the features
// back-to-back (Dims() values per series) beside the transform, and learns
// the breakpoints from the sampled rows of that array, so no series is
// transformed a second time to be indexed.
func TrainAll(n int, at func(i int) series.Series, seriesLen int, opts Options) (*Transform, []float64, error) {
	opts.setDefaults()
	if n == 0 {
		return nil, nil, fmt.Errorf("sfa: empty training collection")
	}
	t := &Transform{
		dft:      dft.New(seriesLen, opts.Dims),
		alphabet: opts.Alphabet,
		binning:  opts.Binning,
	}
	dims := t.dft.Dims()
	feats := make([]float64, n*dims)
	buf := make([]complex128, seriesLen)
	for i := 0; i < n; i++ {
		t.dft.ApplyInto(at(i), feats[i*dims:(i+1)*dims], buf)
	}
	step := 1
	if opts.SampleSize > 0 && n > opts.SampleSize {
		step = n / opts.SampleSize
	}
	t.bps = make([][]float64, dims)
	col := make([]float64, 0, (n+step-1)/step)
	for d := 0; d < dims; d++ {
		col = col[:0]
		for i := 0; i < n; i += step {
			col = append(col, feats[i*dims+d])
		}
		t.bps[d] = computeBreakpoints(col, opts.Alphabet, opts.Binning)
	}
	return t, feats, nil
}

func computeBreakpoints(col []float64, a int, b Binning) []float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	bps := make([]float64, a-1)
	switch b {
	case EquiWidth:
		lo, hi := sorted[0], sorted[len(sorted)-1]
		if hi <= lo {
			hi = lo + 1
		}
		for i := 1; i < a; i++ {
			bps[i-1] = lo + (hi-lo)*float64(i)/float64(a)
		}
	default: // EquiDepth
		for i := 1; i < a; i++ {
			pos := i * len(sorted) / a
			if pos >= len(sorted) {
				pos = len(sorted) - 1
			}
			bps[i-1] = sorted[pos]
		}
		// Ensure strictly increasing breakpoints on degenerate samples.
		for i := 1; i < len(bps); i++ {
			if bps[i] <= bps[i-1] {
				bps[i] = bps[i-1] + 1e-12
			}
		}
	}
	return bps
}

// Restore rebuilds a trained transform from its persisted parameters: the
// series length and word length (the DFT is deterministic given both), the
// alphabet, the binning scheme, and the learned MCB breakpoints. It is the
// snapshot-loading counterpart of TrainAll.
func Restore(seriesLen, dims, alphabet int, binning Binning, bps [][]float64) (*Transform, error) {
	if seriesLen <= 0 || dims <= 0 || alphabet <= 1 {
		return nil, fmt.Errorf("sfa: invalid restore parameters len=%d dims=%d alphabet=%d", seriesLen, dims, alphabet)
	}
	d := dft.New(seriesLen, dims)
	if d.Dims() != dims {
		return nil, fmt.Errorf("sfa: %d dims do not fit series of length %d", dims, seriesLen)
	}
	if len(bps) != dims {
		return nil, fmt.Errorf("sfa: %d breakpoint rows for %d dims", len(bps), dims)
	}
	for dim, row := range bps {
		if len(row) != alphabet-1 {
			return nil, fmt.Errorf("sfa: dim %d has %d breakpoints, want %d", dim, len(row), alphabet-1)
		}
		for i := 1; i < len(row); i++ {
			if row[i] < row[i-1] {
				return nil, fmt.Errorf("sfa: dim %d breakpoints not sorted", dim)
			}
		}
	}
	return &Transform{dft: d, alphabet: alphabet, binning: binning, bps: bps}, nil
}

// SeriesLen returns the expected input length.
func (t *Transform) SeriesLen() int { return t.dft.SeriesLen() }

// BinningScheme returns the MCB scheme the transform was trained with.
func (t *Transform) BinningScheme() Binning { return t.binning }

// Breakpoints returns the learned per-dimension MCB breakpoints (not a
// copy — callers must not mutate).
func (t *Transform) Breakpoints() [][]float64 { return t.bps }

// Dims returns the SFA word length.
func (t *Transform) Dims() int { return t.dft.Dims() }

// Alphabet returns the alphabet size.
func (t *Transform) Alphabet() int { return t.alphabet }

// Features returns the scaled Fourier features of s (the values that get
// discretized).
func (t *Transform) Features(s series.Series) []float64 { return t.dft.Apply(s) }

// FeaturesInto is Features in the caller's buffers: the features are written
// to out[:Dims()], buf (at least SeriesLen() long) is the DFT workspace. The
// transform itself holds no scratch, so concurrent queries each bring theirs.
func (t *Transform) FeaturesInto(s series.Series, out []float64, buf []complex128) []float64 {
	return t.dft.ApplyInto(s, out, buf)
}

// Symbol returns the symbol of value v in dimension d.
func (t *Transform) Symbol(d int, v float64) uint8 {
	idx := sort.SearchFloat64s(t.bps[d], v)
	for idx < len(t.bps[d]) && t.bps[d][idx] == v {
		idx++
	}
	return uint8(idx)
}

// WordInto writes the SFA word of a feature vector to w[:len(feat)] and
// returns it.
func (t *Transform) WordInto(feat []float64, w []uint8) []uint8 {
	w = w[:len(feat)]
	for d, v := range feat {
		w[d] = t.Symbol(d, v)
	}
	return w
}

// Region returns the value interval [lo, hi] of symbol sym in dimension d
// (±Inf at the edges).
func (t *Transform) Region(d int, sym uint8) (lo, hi float64) {
	bps := t.bps[d]
	if int(sym) == 0 {
		lo = math.Inf(-1)
	} else {
		lo = bps[sym-1]
	}
	if int(sym) >= len(bps) {
		hi = math.Inf(1)
	} else {
		hi = bps[sym]
	}
	return lo, hi
}

// MinDistPrefix returns the squared lower-bounding distance between a query
// feature vector and any series whose SFA word starts with the given prefix:
// per dimension, the squared distance from the query feature to the symbol's
// value region. Dimensions beyond the prefix contribute zero (dropping
// dimensions keeps the bound valid). Because the features already carry the
// Parseval scaling (see package dft), no further factor is needed.
func (t *Transform) MinDistPrefix(queryFeat []float64, prefix []uint8) float64 {
	var sum float64
	for d := 0; d < len(prefix) && d < len(queryFeat); d++ {
		lo, hi := t.Region(d, prefix[d])
		v := queryFeat[d]
		var dd float64
		switch {
		case v < lo:
			dd = lo - v
		case v > hi:
			dd = v - hi
		}
		sum += dd * dd
	}
	return sum
}
