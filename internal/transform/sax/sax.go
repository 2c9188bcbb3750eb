// Package sax implements the Symbolic Aggregate Approximation (Lin et al.)
// and its indexable extension iSAX (Shieh & Keogh): PAA values discretized
// against equiprobable breakpoints of the standard normal distribution, with
// per-segment cardinalities that can be refined bit by bit. iSAX words are
// the representation of both iSAX2+ and ADS+.
package sax

import (
	"fmt"
	"math"
	"sort"

	"hydra/internal/mathx"
	"hydra/internal/simd"
)

// MaxBits is the maximum per-segment cardinality in bits (alphabet 256, the
// default of iSAX2+ and ADS+ in the paper).
const MaxBits = 8

// Quantizer maps real PAA values to symbols at any power-of-two cardinality
// up to 2^MaxBits. Breakpoints at cardinality 2^b are a subset of those at
// 2^(b+1), so the symbol at a coarser cardinality is simply the high-order
// bits of the symbol at the maximum cardinality — the nesting property iSAX
// splitting relies on.
type Quantizer struct {
	bps []float64 // 2^MaxBits - 1 breakpoints
}

// NewQuantizer builds the Gaussian equiprobable quantizer.
func NewQuantizer() *Quantizer {
	return &Quantizer{bps: mathx.GaussianBreakpoints(1 << MaxBits)}
}

// Symbol returns the symbol of v at the maximum cardinality: the number of
// breakpoints ≤ v, in [0, 2^MaxBits).
func (q *Quantizer) Symbol(v float64) uint8 {
	idx := sort.SearchFloat64s(q.bps, v)
	// SearchFloat64s returns the first i with bps[i] >= v; symbols count
	// breakpoints strictly below v, so step over equal breakpoints.
	for idx < len(q.bps) && q.bps[idx] == v {
		idx++
	}
	return uint8(idx)
}

// Region returns the value interval [lo, hi] covered by symbol sym at the
// given cardinality in bits (1..MaxBits). Unbounded edges are ±Inf.
func (q *Quantizer) Region(sym uint8, bits uint8) (lo, hi float64) {
	if bits == 0 || bits > MaxBits {
		panic(fmt.Sprintf("sax: bits %d out of range 1..%d", bits, MaxBits))
	}
	shift := MaxBits - bits
	loIdx := int(sym)<<shift - 1     // breakpoint below the region
	hiIdx := (int(sym) + 1) << shift // breakpoint above the region, minus one applied below
	if loIdx < 0 {
		lo = math.Inf(-1)
	} else {
		lo = q.bps[loIdx]
	}
	if hiIdx-1 >= len(q.bps) {
		hi = math.Inf(1)
	} else {
		hi = q.bps[hiIdx-1]
	}
	return lo, hi
}

// Word is an iSAX word: one symbol per segment, each valid at its own
// cardinality (Bits high-order bits of the max-cardinality symbol).
type Word struct {
	Symbols []uint8 // symbols at maximum cardinality
	Bits    []uint8 // per-segment cardinality in bits (1..MaxBits)
}

// NewWord builds a word over seg segments at the given uniform cardinality.
func NewWord(seg int, bits uint8) Word {
	w := Word{Symbols: make([]uint8, seg), Bits: make([]uint8, seg)}
	for i := range w.Bits {
		w.Bits[i] = bits
	}
	return w
}

// Clone returns a deep copy of w.
func (w Word) Clone() Word {
	c := Word{Symbols: make([]uint8, len(w.Symbols)), Bits: make([]uint8, len(w.Bits))}
	copy(c.Symbols, w.Symbols)
	copy(c.Bits, w.Bits)
	return c
}

// SymbolAt returns the symbol of segment i truncated to the word's
// cardinality (its Bits[i] high-order bits, right-aligned).
func (w Word) SymbolAt(i int) uint8 {
	return w.Symbols[i] >> (MaxBits - w.Bits[i])
}

// Matches reports whether the max-cardinality symbols full fall inside w's
// regions (i.e., whether a series with those symbols belongs under node w).
func (w Word) Matches(full []uint8) bool {
	for i := range w.Symbols {
		shift := MaxBits - w.Bits[i]
		if full[i]>>shift != w.Symbols[i]>>shift {
			return false
		}
	}
	return true
}

// String renders the word as symbol:bits pairs.
func (w Word) String() string {
	out := ""
	for i := range w.Symbols {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d:%d", w.SymbolAt(i), w.Bits[i])
	}
	return out
}

// MinDistFullCard returns the squared lower-bounding distance between a
// query's PAA vector and a series' symbols at maximum cardinality — the
// per-series bound ADS+ (SIMS) evaluates against its in-memory summary array.
func (q *Quantizer) MinDistFullCard(queryPAA []float64, symbols []uint8, widths []float64) float64 {
	var sum float64
	for i, v := range queryPAA {
		sym := symbols[i]
		var lo, hi float64
		if sym == 0 {
			lo = math.Inf(-1)
		} else {
			lo = q.bps[sym-1]
		}
		if int(sym) >= len(q.bps) {
			hi = math.Inf(1)
		} else {
			hi = q.bps[sym]
		}
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

// TableLen returns the length of a MinDistTable lookup table for seg
// segments: one entry per (segment, max-cardinality symbol) pair.
func TableLen(seg int) int { return seg << MaxBits }

// MinDistTable fills table (length TableLen(len(queryPAA))) with the
// per-segment, per-symbol contributions of MinDistFullCard:
// table[i<<MaxBits+sym] = widths[i] · d(queryPAA[i], region(sym))². Batched
// per-series bounds then reduce to one table lookup per segment, which is
// how ADS+'s SIMS scores its whole in-memory summary array per query: the
// table costs seg·2^MaxBits region computations once, instead of seg region
// computations per series. The interior of each row is one vectorized
// interval kernel over the shifted breakpoint array; only the two unbounded
// edge symbols are special-cased.
func (q *Quantizer) MinDistTable(queryPAA []float64, widths []float64, table []float64) {
	nb := len(q.bps)
	for i, v := range queryPAA {
		row := table[i<<MaxBits : (i+1)<<MaxBits]
		w := widths[i]
		// Symbol 0 is unbounded below, symbol nb unbounded above.
		var d float64
		if d = v - q.bps[0]; d < 0 {
			d = 0
		}
		row[0] = w * (d * d)
		if d = q.bps[nb-1] - v; d < 0 {
			d = 0
		}
		row[nb] = w * (d * d)
		// Interior symbols s cover [bps[s-1], bps[s]]: the lo and hi arrays
		// are the breakpoints themselves, shifted by one.
		simd.StoreWeightedIntervalSq(v, w, q.bps[:nb-1], q.bps[1:], row[1:nb])
	}
}

// MinDistFullCardTable is MinDistFullCard for one series against a
// MinDistTable: one lookup and one add per segment, in segment order, so the
// result is bit-identical to MinDistFullCard on the query the table was
// built for.
func MinDistFullCardTable(table []float64, symbols []uint8) float64 {
	var sum float64
	for i, sym := range symbols {
		sum += table[i<<MaxBits|int(sym)]
	}
	return sum
}

// MinDistFullCardBatch scores many candidates per call against a
// MinDistTable: wordsT holds the candidates' max-cardinality symbols
// segment-major (transposed — segment j's symbols for all candidates are
// contiguous at wordsT[j*n : (j+1)*n], see simd.Transpose8), and out[i]
// receives the squared lower bound of candidate i. The layout lets the
// kernel layer fetch a segment's symbols for eight neighbouring candidates
// in one load and keep their sums in registers; each candidate still
// accumulates one add per segment in segment order, so
// every out[i] is bit-identical to MinDistFullCard on the same inputs.
func MinDistFullCardBatch(table []float64, wordsT []uint8, seg int, out []float64) {
	n := len(out)
	if len(wordsT) != n*seg {
		panic(fmt.Sprintf("sax: %d flat symbols for %d candidates of %d segments", len(wordsT), n, seg))
	}
	simd.CodeBoundBatchStride(table, 1<<MaxBits, wordsT, out)
}
