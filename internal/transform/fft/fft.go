// Package fft implements the Fast Fourier Transform used by the MASS
// algorithm, the SFA symbolic transform, and the VA+file (which the paper
// modified to use DFT instead of KLT, "since DFT is a very good approximation
// for KLT and is much more efficient").
//
// Power-of-two sizes use an iterative radix-2 Cooley–Tukey transform;
// arbitrary sizes (e.g., the Deep1B length of 96) use Bluestein's chirp-z
// algorithm on top of it.
//
// The radix-2 butterflies read their twiddle factors from one immutable,
// process-wide table (see twiddles). The table is generated by the running
// product w *= wl that the butterfly loop used to carry, so every transform
// — MASS's convolutions included — returns the bits it always did, without
// a complex multiply per butterfly or a cmplx.Exp per stage. A caller that
// reads only the first keep coefficients (the DFT features of SFA and the
// VA+file keep 9 of 256) says so, and the transform skips every butterfly no
// kept output depends on; the kept outputs are bit-identical to a full
// transform's. Nothing here holds per-call state: workspaces belong to the
// caller (Convolve allocates its own, Forward takes one).
package fft

import (
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"hydra/internal/mathx"
)

// Forward computes the forward DFT of a in place:
// X[k] = Σ_j a[j]·e^(−2πi·jk/n). Only the first keep coefficients are
// wanted: on return a[:keep] holds X[0..keep-1], bit-equal to the same
// entries of a full transform (keep = n), and the rest of a is
// unspecified. A power-of-two length allocates nothing and skips the
// butterflies that feed no kept coefficient; any other length runs the
// full Bluestein transform.
func Forward(a []complex128, keep int) {
	n := len(a)
	switch {
	case n <= 1:
	case mathx.IsPow2(n):
		radix2(a, false, keep)
	default:
		copy(a, bluestein(a))
	}
}

// twiddles holds the butterfly factors of every radix-2 stage up to length
// n, forward and inverse: stage length L (a power of two, 2 ≤ L ≤ n) uses
// w_j = wl^j for j < L/2 with wl = e^(∓2πi/L), stored at [L/2−1, L−1). A
// stage's factors do not depend on the transform size, so one table serves
// every size up to n. Each w_j is produced by the recurrence w_{j+1} = w_j·wl
// from w_0 = 1 — not by cmplx.Exp per factor — because that is the sequence
// the transform's results have always been built from. The table costs 32
// bytes per point of the largest transform the process has run.
type twiddles struct {
	n        int
	fwd, inv []complex128
}

var (
	// twiddleTable is replaced, never modified: readers take whatever
	// table they load, writers (twiddlesFor) publish a larger one.
	twiddleTable atomic.Pointer[twiddles]
	twiddleGrow  sync.Mutex
)

// twiddlesFor returns a table covering transforms of length n.
func twiddlesFor(n int) *twiddles {
	if t := twiddleTable.Load(); t != nil && t.n >= n {
		return t
	}
	twiddleGrow.Lock()
	defer twiddleGrow.Unlock()
	if t := twiddleTable.Load(); t != nil && t.n >= n {
		return t
	}
	t := &twiddles{n: n, fwd: make([]complex128, n-1), inv: make([]complex128, n-1)}
	fill := func(w []complex128, ang float64) {
		wl := cmplx.Exp(complex(0, ang))
		wj := complex(1, 0)
		for j := range w {
			w[j] = wj
			wj *= wl
		}
	}
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		ang := 2 * math.Pi / float64(length)
		fill(t.fwd[half-1:length-1], -ang)
		fill(t.inv[half-1:length-1], ang)
	}
	twiddleTable.Store(t)
	return t
}

// radix2 performs an in-place iterative Cooley–Tukey FFT. len(a) must be a
// power of two. If inverse, the conjugate transform is computed (without the
// 1/n factor). Only a[:keep] is valid on return (keep = len(a) for the whole
// transform): in a stage of length L every block owes the next stage its
// outputs [0, min(keep, L)), and butterfly j yields outputs j and j+L/2, so
// butterflies j ≥ keep are skipped — at n = 256, keep = 9 that leaves 647 of
// the 1 024.
func radix2(a []complex128, inverse bool, keep int) {
	n := len(a)
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[i], a[j] = a[j], a[i]
		}
	}
	t := twiddlesFor(n)
	tw := t.fwd
	if inverse {
		tw = t.inv
	}
	for length := 2; length <= n; length <<= 1 {
		half := length >> 1
		w := tw[half-1 : length-1]
		if keep < half {
			w = w[:keep]
		}
		for i := 0; i < n; i += length {
			lo, hi := a[i:i+half], a[i+half:i+length]
			for j, wj := range w {
				u := lo[j]
				v := hi[j] * wj
				lo[j] = u + v
				hi[j] = u - v
			}
		}
	}
}

// bluestein computes an arbitrary-size forward DFT as a convolution, which
// is evaluated with a power-of-two FFT.
func bluestein(x []complex128) []complex128 {
	n := len(x)
	m := mathx.NextPow2(2*n - 1)

	// Chirp: w[j] = e^(−πi·j²/n). Using j² mod 2n keeps the argument small
	// for numerical stability.
	w := make([]complex128, n)
	for j := 0; j < n; j++ {
		jj := (int64(j) * int64(j)) % int64(2*n)
		w[j] = cmplx.Exp(complex(0, -math.Pi*float64(jj)/float64(n)))
	}

	a := make([]complex128, m)
	b := make([]complex128, m)
	for j := 0; j < n; j++ {
		a[j] = x[j] * w[j]
		b[j] = cmplx.Conj(w[j])
	}
	for j := 1; j < n; j++ {
		b[m-j] = cmplx.Conj(w[j])
	}
	radix2(a, false, m)
	radix2(b, false, m)
	for j := range a {
		a[j] *= b[j]
	}
	radix2(a, true, m)
	invm := complex(1/float64(m), 0)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		out[j] = a[j] * invm * w[j]
	}
	return out
}

// Convolve returns the circular cross-correlation core used by MASS: the
// sliding dot products of query q (reversed) against data x, computed as
// IFFT(FFT(x)·FFT(rev(q) zero-padded)). The returned slice has length
// len(x); entry i (for i ≥ len(q)−1) is Σ_j q[j]·x[i−len(q)+1+j].
func Convolve(x, q []float64) []float64 {
	n := len(x)
	m := len(q)
	size := mathx.NextPow2(n + m)
	cbuf := make([]complex128, 2*size)
	xa := cbuf[:size]
	qa := cbuf[size:]
	for i, v := range x {
		xa[i] = complex(v, 0)
	}
	for i, v := range q {
		qa[m-1-i] = complex(v, 0) // reversed query
	}
	radix2(xa, false, size)
	radix2(qa, false, size)
	for i := range xa {
		xa[i] *= qa[i]
	}
	radix2(xa, true, size)
	inv := 1 / float64(size)
	out := make([]float64, n)
	for i := range out {
		out[i] = real(xa[i]) * inv
	}
	return out
}
