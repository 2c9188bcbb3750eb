package simd

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sink keeps benchmark results alive so the compiler cannot drop the calls.
var sink float64

// Backend-vs-backend kernel benchmarks: "dispatched" is whatever Backend()
// selected (the assembly on AVX2 machines), "go" pins the portable twin.
// The README performance table and the PR acceptance numbers come from
// these on an AVX2+FMA host.

func benchSeries(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func BenchmarkSquaredDist(b *testing.B) {
	const n = 256
	q, c := benchSeries(n, 1), benchSeries(n, 2)
	b.Run("dispatched", func(b *testing.B) {
		b.SetBytes(2 * 4 * n)
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += SquaredDist(q, c)
		}
		_ = sum
	})
	b.Run("go", func(b *testing.B) {
		b.SetBytes(2 * 4 * n)
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += squaredDistGo(q, c)
		}
		_ = sum
	})
}

// eaBenchSet is what a scan's inner loop sees: count Z-normalized random
// walks of length n back to back in one flat array (rows start on cache
// lines, like the storage arena), a query of the same kind, its block order
// by decreasing energy (what series.OrderBuilder builds; this package cannot
// import it) and the squared distance to its k-th nearest row.
type eaBenchSet struct {
	n      int
	data   []float32
	q      []float32
	starts []int
	kth    float64
}

func newEABenchSet(count, n, k int, seed int64) *eaBenchSet {
	rng := rand.New(rand.NewSource(seed))
	walk := func(dst []float32) {
		var v, sum, sumSq float64
		for i := range dst {
			v += rng.NormFloat64()
			dst[i] = float32(v)
			sum += v
			sumSq += v * v
		}
		mean := sum / float64(n)
		inv := 1 / math.Sqrt(sumSq/float64(n)-mean*mean)
		for i, x := range dst {
			dst[i] = float32((float64(x) - mean) * inv)
		}
	}
	s := &eaBenchSet{n: n, data: make([]float32, count*n), q: make([]float32, n)}
	for i := 0; i < count; i++ {
		walk(s.row(i))
	}
	walk(s.q)
	s.starts = make([]int, n/BlockLen)
	energy := make([]float64, len(s.starts))
	for b := range s.starts {
		s.starts[b] = b * BlockLen
		for _, v := range s.q[b*BlockLen : (b+1)*BlockLen] {
			energy[b] += float64(v) * float64(v)
		}
	}
	sort.SliceStable(s.starts, func(i, j int) bool { return energy[s.starts[i]/BlockLen] > energy[s.starts[j]/BlockLen] })
	dists := make([]float64, count)
	for i := range dists {
		dists[i] = squaredDistGo(s.q, s.row(i))
	}
	sort.Float64s(dists)
	s.kth = dists[k-1]
	return s
}

func (s *eaBenchSet) row(i int) []float32 { return s.data[i*s.n : (i+1)*s.n : (i+1)*s.n] }

// BenchmarkSquaredDistEA times both early-abandoning kernels, on both
// backends, over a 32 MB collection in the three regimes a query meets:
// "full" never abandons (bound +Inf, the first k candidates of a scan),
// "abandon" runs against the query's real 10th-best bound, cycling through a
// cache-resident window of 64 candidates (a leaf refine loop, and what
// bench/ probes), "abandon-ooc" does the same through the whole collection,
// so every candidate comes from memory (a scan). The bytes are the
// candidate's, whether read or not: MB/s is scan throughput.
func BenchmarkSquaredDistEA(b *testing.B) {
	const n = 256
	set := newEABenchSet(32<<20/(4*n), n, 10, 1)
	for _, regime := range []struct {
		name  string
		rows  int
		bound float64
	}{
		{"full", 64, math.Inf(1)},
		{"abandon", 64, set.kth},
		{"abandon-ooc", len(set.data) / n, set.kth},
	} {
		rows, bound, thr := regime.rows, regime.bound, eaThreshold(regime.bound)
		for _, kern := range []struct {
			name string
			dist func(c []float32) float64
		}{
			{"blocked/dispatched", func(c []float32) float64 { return SquaredDistEABlocked(set.q, c, bound) }},
			{"blocked/go", func(c []float32) float64 { return squaredDistEABlockedGo(set.q, c, thr) }},
			{"ordered/dispatched", func(c []float32) float64 { return SquaredDistEAOrderedBlocked(set.q, c, set.starts, bound) }},
			{"ordered/go", func(c []float32) float64 { return squaredDistEAOrderedBlockedGo(set.q, c, set.starts, thr) }},
		} {
			b.Run(regime.name+"/"+kern.name, func(b *testing.B) {
				b.SetBytes(4 * n)
				var sum float64
				for i := 0; i < b.N; i++ {
					sum += kern.dist(set.row(i % rows))
				}
				sink = sum
			})
		}
	}
}

// BenchmarkScanRun is a scan's inner loop over the collection of
// BenchmarkSquaredDistEA's abandon-ooc regime, against the query's real
// 10th-best bound: "run" hands ScanRun runs of 1024 rows (what
// core.ScanKNN's chunks are), "per-candidate" calls SquaredDistEAOrderedBlocked
// once a row (the loop ScanRun replaced). An op is one candidate, so ns/op
// is the cost per candidate and MB/s the scan throughput.
func BenchmarkScanRun(b *testing.B) {
	const n, run = 256, 1024
	set := newEABenchSet(32<<20/(4*n), n, 10, 1)
	count, qw := len(set.data)/n, widen(set.q)
	b.Run("per-candidate/dispatched", func(b *testing.B) {
		b.SetBytes(4 * n)
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += SquaredDistEAOrderedBlocked(set.q, set.row(i%count), set.starts, set.kth)
		}
		sink = sum
	})
	runs := func(b *testing.B) {
		b.SetBytes(4 * n)
		var sum float64
		for done := 0; done < b.N; {
			lo := done % count
			m := min(run, count-lo, b.N-done)
			rows := set.data[lo*n : (lo+m)*n]
			for j := 0; j < m; {
				next, d := ScanRun(qw, rows[j*n:], m-j, set.starts, set.kth)
				sum += d
				j += next + 1
			}
			done += m
		}
		sink = sum
	}
	b.Run("run/dispatched", runs)
	b.Run("run/go", func(b *testing.B) {
		defer forceGoBackend()()
		runs(b)
	})
}

// BenchmarkCodeBoundBatch times the code-bound kernel on the shapes the
// engine runs — ADS+ SIMS (16 segments at cardinality 256, uniform rows,
// through CodeBoundBatchStride) and the VA+file (16 dimensions with a
// non-uniform bit allocation, ragged rows, through CodeBoundBatch) — and
// reports ns/code. Both backends go through the exported entry point: the
// "go" runs flip the dispatcher, they do not call the twin from here, so
// what is timed is the code a query runs with HYDRA_SIMD=off.
func BenchmarkCodeBoundBatch(b *testing.B) {
	const dims, stride = 16, 256
	rng := rand.New(rand.NewSource(4))
	randTable := func(n int) []float64 {
		t := make([]float64, n)
		for i := range t {
			t[i] = math.Abs(rng.NormFloat64())
		}
		return t
	}
	// A vaq-style allocation: high-energy dimensions get more cells. The
	// table carries the 255 entries of padding vaq.Quantizer.TableLen adds.
	bits := [dims]int{8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1, 0}
	offs := make([]int, dims)
	cells := 0
	for d, w := range bits {
		offs[d] = cells
		cells += 1 << w
	}
	type shape struct {
		name     string
		n        int
		tableLen int
		card     func(d int) int
		run      func(table []float64, codesT []uint8, out []float64)
	}
	uniform := func(int) int { return stride }
	strided := func(table []float64, codesT []uint8, out []float64) {
		CodeBoundBatchStride(table, stride, codesT, out)
	}
	for _, sh := range []shape{
		{"stride/32768x16", 1 << 15, dims * stride, uniform, strided},
		{"stride/20000x16", 20000, dims * stride, uniform, strided},
		{"ragged/10000x16", 10000, cells + codeRowLen - 1, func(d int) int { return 1 << bits[d] },
			func(table []float64, codesT []uint8, out []float64) { CodeBoundBatch(table, offs, codesT, out) }},
	} {
		n := sh.n
		table := randTable(sh.tableLen)
		codesT := make([]uint8, dims*n)
		for d := 0; d < dims; d++ {
			for i := 0; i < n; i++ {
				codesT[d*n+i] = uint8(rng.Intn(sh.card(d)))
			}
		}
		out := make([]float64, n)
		for _, backend := range []string{"dispatched", "go"} {
			b.Run(sh.name+"/"+backend, func(b *testing.B) {
				if backend == "go" {
					defer forceGoBackend()()
				}
				b.SetBytes(int64(dims * n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sh.run(table, codesT, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/code")
			})
		}
	}
}

func BenchmarkWeightedIntervalDistSq(b *testing.B) {
	// The iSAX node-bound shape: 16 PAA segments.
	const n = 16
	rng := rand.New(rand.NewSource(5))
	v, lo, hi := intervalCase(rng, n, 0)
	w := make([]float64, n)
	for i := range w {
		w[i] = 16
	}
	b.Run("dispatched", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += WeightedIntervalDistSq(v, lo, hi, w)
		}
		_ = sum
	})
	b.Run("go", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			sum += weightedIntervalDistSqGo(v, lo, hi, w)
		}
		_ = sum
	})
}

// BenchmarkBlockMoments is the synopsis derive pass: 10 000 series of 256
// values (the tree-exact collection, 10 MB — larger than the cache, as on a
// snapshot load), one record each. MB/s counts the raw bytes read.
func BenchmarkBlockMoments(b *testing.B) {
	const count, n = 10000, 256
	data := benchSeries(count*n, 9)
	out := make([]float32, count*BlockMomentsLen(n))
	run := func(b *testing.B) {
		b.SetBytes(4 * count * n)
		for i := 0; i < b.N; i++ {
			for s := 0; s < count; s++ {
				BlockMoments(data[s*n:(s+1)*n], out[s*32:(s+1)*32])
			}
		}
	}
	b.Run("dispatched", run)
	b.Run("go", func(b *testing.B) {
		defer forceGoBackend()()
		run(b)
	})
}

// BenchmarkFirstNonFinite is the public boundary's finite check over the
// scan-exact collection (24 000 series of 256 values, 24.6 MB), which
// opening the collection file pays once. MB/s counts the bytes checked.
func BenchmarkFirstNonFinite(b *testing.B) {
	data := benchSeries(24000*256, 10)
	run := func(b *testing.B) {
		b.SetBytes(4 * int64(len(data)))
		for i := 0; i < b.N; i++ {
			sink += float64(FirstNonFinite(data))
		}
	}
	b.Run("dispatched", run)
	b.Run("go", func(b *testing.B) {
		defer forceGoBackend()()
		run(b)
	})
}
