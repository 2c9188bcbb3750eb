package simd

import "math"

// The Go twins of the assembly kernels. Each mirrors its AVX2 counterpart
// lane for lane: the same elements feed the same accumulator, every fused
// multiply-add the assembly issues is a math.FMA here, and the final
// reduction folds lanes in the same fixed tree. That correspondence — not
// testing luck — is what makes the two backends bit-identical (see the
// package contract in doc.go).

// reduce8 folds eight lane accumulators in the fixed order the assembly
// uses: lanewise add of the two vector accumulators, cross-half add, then
// the final pair.
func reduce8(l0, l1, l2, l3, l4, l5, l6, l7 float64) float64 {
	m0, m1, m2, m3 := l0+l4, l1+l5, l2+l6, l3+l7
	return (m0 + m2) + (m1 + m3)
}

// reduce4 folds four lane accumulators: cross-half add, then the pair.
func reduce4(l0, l1, l2, l3 float64) float64 {
	return (l0 + l2) + (l1 + l3)
}

// clampDist returns the distance from v to the interval [lo, hi]: lo-v
// below it, v-hi above it, 0 inside. Infinite interval edges behave
// naturally (the unbounded side never contributes). Mirrors the assembly's
// max(lo-v, v-hi, 0) — the only divergence is the sign of a zero result,
// which squaring erases.
func clampDist(v, lo, hi float64) float64 {
	t := lo - v
	if u := v - hi; u > t {
		t = u
	}
	if t < 0 {
		t = 0
	}
	return t
}

func squaredDistGo(q, c []float32) float64 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	n := len(q)
	i := 0
	for ; i+8 <= n; i += 8 {
		d0 := float64(q[i+0]) - float64(c[i+0])
		d1 := float64(q[i+1]) - float64(c[i+1])
		d2 := float64(q[i+2]) - float64(c[i+2])
		d3 := float64(q[i+3]) - float64(c[i+3])
		d4 := float64(q[i+4]) - float64(c[i+4])
		d5 := float64(q[i+5]) - float64(c[i+5])
		d6 := float64(q[i+6]) - float64(c[i+6])
		d7 := float64(q[i+7]) - float64(c[i+7])
		l0 = math.FMA(d0, d0, l0)
		l1 = math.FMA(d1, d1, l1)
		l2 = math.FMA(d2, d2, l2)
		l3 = math.FMA(d3, d3, l3)
		l4 = math.FMA(d4, d4, l4)
		l5 = math.FMA(d5, d5, l5)
		l6 = math.FMA(d6, d6, l6)
		l7 = math.FMA(d7, d7, l7)
	}
	sum := reduce8(l0, l1, l2, l3, l4, l5, l6, l7)
	for ; i < n; i++ {
		d := float64(q[i]) - float64(c[i])
		sum = math.FMA(d, d, sum)
	}
	return sum
}

func squaredDistEABlockedGo(q, c []float32, thr float64) float64 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	n := len(q)
	i := 0
	for ; i+16 <= n; i += 16 {
		for _, b := range [2]int{i, i + 8} {
			d0 := float64(q[b+0]) - float64(c[b+0])
			d1 := float64(q[b+1]) - float64(c[b+1])
			d2 := float64(q[b+2]) - float64(c[b+2])
			d3 := float64(q[b+3]) - float64(c[b+3])
			d4 := float64(q[b+4]) - float64(c[b+4])
			d5 := float64(q[b+5]) - float64(c[b+5])
			d6 := float64(q[b+6]) - float64(c[b+6])
			d7 := float64(q[b+7]) - float64(c[b+7])
			l0 = math.FMA(d0, d0, l0)
			l1 = math.FMA(d1, d1, l1)
			l2 = math.FMA(d2, d2, l2)
			l3 = math.FMA(d3, d3, l3)
			l4 = math.FMA(d4, d4, l4)
			l5 = math.FMA(d5, d5, l5)
			l6 = math.FMA(d6, d6, l6)
			l7 = math.FMA(d7, d7, l7)
		}
		if sum := reduce8(l0, l1, l2, l3, l4, l5, l6, l7); sum > thr {
			return sum
		}
	}
	sum := reduce8(l0, l1, l2, l3, l4, l5, l6, l7)
	for ; i < n; i++ {
		d := float64(q[i]) - float64(c[i])
		sum = math.FMA(d, d, sum)
	}
	return sum
}

// squaredDistEAOrderedBlockedGo is generic over the query's element type so
// that the run kernel's twin can pass the query widened to float64 once:
// float64(q[i]) is the same value whichever width q holds it at, so both
// instantiations return the same bits.
func squaredDistEAOrderedBlockedGo[Q float32 | float64](q []Q, c []float32, starts []int, thr float64) float64 {
	var l0, l1, l2, l3, l4, l5, l6, l7 float64
	n := len(q)
	nb := min(len(starts), n/BlockLen)
	last := n - BlockLen
	for _, o := range starts[:nb] {
		// The assembly's unsigned clamp: no start, negative or past the
		// end, moves a block outside the series.
		if uint(o) > uint(last) {
			o = last
		}
		for _, b := range [2]int{o, o + 8} {
			d0 := float64(q[b+0]) - float64(c[b+0])
			d1 := float64(q[b+1]) - float64(c[b+1])
			d2 := float64(q[b+2]) - float64(c[b+2])
			d3 := float64(q[b+3]) - float64(c[b+3])
			d4 := float64(q[b+4]) - float64(c[b+4])
			d5 := float64(q[b+5]) - float64(c[b+5])
			d6 := float64(q[b+6]) - float64(c[b+6])
			d7 := float64(q[b+7]) - float64(c[b+7])
			l0 = math.FMA(d0, d0, l0)
			l1 = math.FMA(d1, d1, l1)
			l2 = math.FMA(d2, d2, l2)
			l3 = math.FMA(d3, d3, l3)
			l4 = math.FMA(d4, d4, l4)
			l5 = math.FMA(d5, d5, l5)
			l6 = math.FMA(d6, d6, l6)
			l7 = math.FMA(d7, d7, l7)
		}
		if sum := reduce8(l0, l1, l2, l3, l4, l5, l6, l7); sum > thr {
			return sum
		}
	}
	sum := reduce8(l0, l1, l2, l3, l4, l5, l6, l7)
	for i := nb * BlockLen; i < n; i++ {
		d := float64(q[i]) - float64(c[i])
		sum = math.FMA(d, d, sum)
	}
	return sum
}

// scanRunGo is the twin of scanRunAVX2: the per-candidate kernel over n
// consecutive rows of len(qw) values, stopping at the first row whose sum
// does not exceed thr. That sum is the row's full distance, because a
// partial sum above thr would have been returned instead.
func scanRunGo(qw []float64, rows []float32, n int, starts []int, thr float64) (int, float64) {
	l := len(qw)
	for r := 0; r < n; r++ {
		if sum := squaredDistEAOrderedBlockedGo(qw, rows[r*l:(r+1)*l], starts, thr); !(sum > thr) {
			return r, sum
		}
	}
	return n, 0
}

// firstNonFiniteGo returns the index of the first NaN or infinity in
// x[from:] — a value whose exponent field is all ones — or -1 when there is
// none. The assembly clears the leading whole groups of eight at once and
// passes the tail here; when it finds a non-finite value, the whole slice
// is searched here from the start.
func firstNonFiniteGo(x []float32, from int) int {
	for i := from; i < len(x); i++ {
		if math.Float32bits(x[i])&0x7f800000 == 0x7f800000 {
			return i
		}
	}
	return -1
}

// codeBoundGo scores candidates from..len(out)-1 of CodeBoundBatch: eight
// neighbouring candidates at a time, their sums held in locals across the
// dimension walk, then the remainder one candidate at a time. Every sum
// starts from zero and takes one add per dimension in increasing d. All
// indexing is bounds-checked, so a cell index outside table panics.
func codeBoundGo(table []float64, offs []int, codesT []uint8, out []float64, from int) {
	n := len(out)
	i := from
	for ; i+8 <= n; i += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for d, off := range offs {
			row := table[off:]
			c := codesT[d*n+i : d*n+i+8]
			s0 += row[c[0]]
			s1 += row[c[1]]
			s2 += row[c[2]]
			s3 += row[c[3]]
			s4 += row[c[4]]
			s5 += row[c[5]]
			s6 += row[c[6]]
			s7 += row[c[7]]
		}
		o := out[i : i+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; i < n; i++ {
		var sum float64
		for d, off := range offs {
			sum += table[off+int(codesT[d*n+i])]
		}
		out[i] = sum
	}
}

func intervalDistSqGo(v, lo, hi []float64) float64 {
	var l0, l1, l2, l3 float64
	n := len(v)
	i := 0
	for ; i+4 <= n; i += 4 {
		t0 := clampDist(v[i+0], lo[i+0], hi[i+0])
		t1 := clampDist(v[i+1], lo[i+1], hi[i+1])
		t2 := clampDist(v[i+2], lo[i+2], hi[i+2])
		t3 := clampDist(v[i+3], lo[i+3], hi[i+3])
		l0 = math.FMA(t0, t0, l0)
		l1 = math.FMA(t1, t1, l1)
		l2 = math.FMA(t2, t2, l2)
		l3 = math.FMA(t3, t3, l3)
	}
	sum := reduce4(l0, l1, l2, l3)
	for ; i < n; i++ {
		t := clampDist(v[i], lo[i], hi[i])
		sum = math.FMA(t, t, sum)
	}
	return sum
}

func weightedIntervalDistSqGo(v, lo, hi, w []float64) float64 {
	var l0, l1, l2, l3 float64
	n := len(v)
	i := 0
	for ; i+4 <= n; i += 4 {
		t0 := clampDist(v[i+0], lo[i+0], hi[i+0])
		t1 := clampDist(v[i+1], lo[i+1], hi[i+1])
		t2 := clampDist(v[i+2], lo[i+2], hi[i+2])
		t3 := clampDist(v[i+3], lo[i+3], hi[i+3])
		l0 = math.FMA(w[i+0], t0*t0, l0)
		l1 = math.FMA(w[i+1], t1*t1, l1)
		l2 = math.FMA(w[i+2], t2*t2, l2)
		l3 = math.FMA(w[i+3], t3*t3, l3)
	}
	sum := reduce4(l0, l1, l2, l3)
	for ; i < n; i++ {
		t := clampDist(v[i], lo[i], hi[i])
		sum = math.FMA(w[i], t*t, sum)
	}
	return sum
}

func eapcaBoundGo(qm, qs, w, minMean, maxMean, minStd, maxStd []float64) float64 {
	var l0, l1, l2, l3 float64
	n := len(w)
	i := 0
	for ; i+4 <= n; i += 4 {
		m0 := clampDist(qm[i+0], minMean[i+0], maxMean[i+0])
		m1 := clampDist(qm[i+1], minMean[i+1], maxMean[i+1])
		m2 := clampDist(qm[i+2], minMean[i+2], maxMean[i+2])
		m3 := clampDist(qm[i+3], minMean[i+3], maxMean[i+3])
		s0 := clampDist(qs[i+0], minStd[i+0], maxStd[i+0])
		s1 := clampDist(qs[i+1], minStd[i+1], maxStd[i+1])
		s2 := clampDist(qs[i+2], minStd[i+2], maxStd[i+2])
		s3 := clampDist(qs[i+3], minStd[i+3], maxStd[i+3])
		l0 = math.FMA(w[i+0], math.FMA(s0, s0, m0*m0), l0)
		l1 = math.FMA(w[i+1], math.FMA(s1, s1, m1*m1), l1)
		l2 = math.FMA(w[i+2], math.FMA(s2, s2, m2*m2), l2)
		l3 = math.FMA(w[i+3], math.FMA(s3, s3, m3*m3), l3)
	}
	sum := reduce4(l0, l1, l2, l3)
	for ; i < n; i++ {
		m := clampDist(qm[i], minMean[i], maxMean[i])
		s := clampDist(qs[i], minStd[i], maxStd[i])
		sum = math.FMA(w[i], math.FMA(s, s, m*m), sum)
	}
	return sum
}

func storeWeightedIntervalSqGo(v, w float64, lo, hi, out []float64) {
	for i := range out {
		t := clampDist(v, lo[i], hi[i])
		out[i] = w * (t * t)
	}
}

// blockMomentsGo fills out[2b], out[2b+1] with the moment pair of block b of
// x, for the whole BlockLen-element blocks b in [from, blocks): the block's
// sum over √BlockLen (= √w·mean) and the root of its squared
// deviations from the mean (= √w·std), both rounded to float32 once, at the
// store. The sums are four-lane (element i feeds lane i mod 4, the four
// quarters of a block folded pairwise) and the deviations are squared by the
// fused multiply-adds the assembly issues, so the two backends agree bit for
// bit. Scaling by BlockLen and its root is exact (powers of two).
func blockMomentsGo(x, out []float32, from, blocks int) {
	for b := from; b < blocks; b++ {
		p := x[b*BlockLen : (b+1)*BlockLen : (b+1)*BlockLen]
		var s, v [4]float64
		for j := range s {
			s[j] = (float64(p[j]) + float64(p[4+j])) + (float64(p[8+j]) + float64(p[12+j]))
		}
		sum := (s[0] + s[1]) + (s[2] + s[3])
		mean := sum * (1.0 / BlockLen)
		for j := range v {
			d0, d1 := float64(p[j])-mean, float64(p[4+j])-mean
			d2, d3 := float64(p[8+j])-mean, float64(p[12+j])-mean
			v[j] = math.FMA(d1, d1, d0*d0) + math.FMA(d3, d3, d2*d2)
		}
		dev := (v[0] + v[1]) + (v[2] + v[3])
		out[2*b] = float32(sum * 0.25)
		out[2*b+1] = float32(math.Sqrt(dev))
	}
}

// blockMomentsTail is the moment pair of a short last block (0 < len(p) <
// BlockLen), summed in element order — the one formulation of both
// backends, fused explicitly so every architecture rounds alike.
func blockMomentsTail(p []float32) (m, s float32) {
	var sum float64
	for _, v := range p {
		sum += float64(v)
	}
	w := float64(len(p))
	mean := sum / w
	var dev float64
	for _, v := range p {
		d := float64(v) - mean
		dev = math.FMA(d, d, dev)
	}
	return float32(sum / math.Sqrt(w)), float32(math.Sqrt(dev))
}
