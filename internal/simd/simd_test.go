package simd

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The equivalence suite: every dispatched kernel must return bit-identical
// results on the assembly and Go backends, across lengths (including every
// tail shape around the 4/8/16-lane widths), misaligned subslice views,
// and abandon bounds. On machines without AVX2 the comparisons reduce to
// Go-vs-Go and pass trivially; the CI assembly job provides the real
// coverage.

// tailLengths is every length from 0 to beyond twice the widest lane
// structure (the 16-element abandon block), plus a few larger sizes that
// exercise long main loops with every tail remainder.
func tailLengths() []int {
	ls := make([]int, 0, 64)
	for n := 0; n <= 2*BlockLen+BlockLen-1; n++ {
		ls = append(ls, n)
	}
	for _, n := range []int{63, 64, 65, 127, 128, 129, 255, 256, 257} {
		ls = append(ls, n)
	}
	return ls
}

// misalign returns a view of length n starting at element off of a larger
// backing array, mimicking the capped arena views of storage.SeriesFile
// (odd offsets are reachable in production: series i starts at element
// i·length, so an odd length puts series starts at odd offsets).
func misalignF32(rng *rand.Rand, n, off int) []float32 {
	b := make([]float32, n+off+3)
	for i := range b {
		b[i] = float32(rng.NormFloat64())
	}
	return b[off : off+n : off+n]
}

func misalignF64(rng *rand.Rand, n, off int) []float64 {
	b := make([]float64, n+off+3)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b[off : off+n : off+n]
}

func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestBackendReported(t *testing.T) {
	b := Backend()
	if b != "avx2+fma" && b != "go" {
		t.Fatalf("unexpected backend %q", b)
	}
	t.Logf("backend=%s features=%v hasAVX2=%v", b, Features(), HasAVX2())
}

// intervalCase builds (v, lo, hi) triples with lo <= hi, v landing below,
// inside and above the interval, and ±Inf edges sprinkled in — the region
// shapes of sax/vaq tables and MBRs.
func intervalCase(rng *rand.Rand, n, off int) (v, lo, hi []float64) {
	v = misalignF64(rng, n, off)
	lo = misalignF64(rng, n, off+1)
	hi = misalignF64(rng, n, off+2)
	for i := range lo {
		if lo[i] > hi[i] {
			lo[i], hi[i] = hi[i], lo[i]
		}
		switch rng.Intn(8) {
		case 0:
			lo[i] = math.Inf(-1)
		case 1:
			hi[i] = math.Inf(1)
		case 2:
			lo[i], hi[i] = math.Inf(-1), math.Inf(1)
		case 3:
			v[i] = lo[i] // exactly on the edge
		}
	}
	return v, lo, hi
}

// codeLayout is one table shape of the code-bound kernel: dimension d's
// row starts at offs[d] and its codes stay below card[d]. stride is the
// common row distance when CodeBoundBatchStride can express the layout
// (0 otherwise).
type codeLayout struct {
	name     string
	tableLen int
	offs     []int
	card     []int
	stride   int
}

// codeLayouts returns the shapes the kernel must agree on for dims
// dimensions: uniform full-cardinality rows (ADS+; the assembly's case),
// uniform 16-cell rows (the last rows end less than 256 entries before the
// table does, so the dispatcher must fall back to the Go kernel), and ragged
// rows with and without the 255 entries of padding that make the VA+file's
// table safe for the assembly.
func codeLayouts(rng *rand.Rand, dims int) []codeLayout {
	uniform := func(stride int) codeLayout {
		l := codeLayout{name: fmt.Sprintf("uniform%d", stride), tableLen: dims * stride, stride: stride}
		for d := 0; d < dims; d++ {
			l.offs = append(l.offs, d*stride)
			l.card = append(l.card, stride)
		}
		return l
	}
	ragged := codeLayout{name: "ragged"}
	for d := 0; d < dims; d++ {
		ragged.offs = append(ragged.offs, ragged.tableLen)
		ragged.card = append(ragged.card, 1<<rng.Intn(9))
		ragged.tableLen += ragged.card[d]
	}
	padded := ragged
	padded.name, padded.tableLen = "ragged+pad", ragged.tableLen+codeRowLen-1
	return []codeLayout{uniform(256), uniform(16), ragged, padded}
}

// checkCodeBound scores n random candidates of the layout through both
// entry points and the Go kernel, and requires every bound to carry the bits
// of the per-candidate scalar sum.
func checkCodeBound(t *testing.T, rng *rand.Rand, l codeLayout, n int) {
	t.Helper()
	dims := len(l.offs)
	table := make([]float64, l.tableLen)
	for i := range table {
		table[i] = rng.NormFloat64()
	}
	codesT := make([]uint8, dims*n)
	for d := 0; d < dims; d++ {
		for i := 0; i < n; i++ {
			codesT[d*n+i] = uint8(rng.Intn(l.card[d]))
		}
	}
	want := make([]float64, n)
	for i := range want {
		for d := 0; d < dims; d++ {
			want[i] += table[l.offs[d]+int(codesT[d*n+i])]
		}
	}
	out := make([]float64, n)
	check := func(entry string) {
		t.Helper()
		for i := range out {
			if !bitEq(out[i], want[i]) {
				t.Fatalf("%s %s dims=%d n=%d: out[%d] = %v, scalar %v", entry, l.name, dims, n, i, out[i], want[i])
			}
			out[i] = math.NaN() // the next entry must overwrite, not accumulate
		}
	}
	CodeBoundBatch(table, l.offs, codesT, out)
	check("CodeBoundBatch")
	codeBoundGo(table, l.offs, codesT, out, 0)
	check("codeBoundGo")
	if l.stride > 0 && dims > 0 {
		CodeBoundBatchStride(table, l.stride, codesT, out)
		check("CodeBoundBatchStride")
	}
}

// TestCodeBoundBatchMatchesScalar pins the bit-identical contract of the
// batched code kernel — dispatched backend ≡ Go kernel ≡ per-candidate
// scalar sum — for both entry points, over every group-of-eight remainder,
// dimension counts around the engine's 16, and tables the assembly may and
// may not take.
func TestCodeBoundBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var small []int
	for n := 0; n <= 40; n++ {
		small = append(small, n)
	}
	large := []int{4095, 4096, 4097, 20003}
	for dims := 0; dims <= 17; dims++ {
		sizes := small
		if dims == 1 || dims >= 16 {
			sizes = append(small[:len(small):len(small)], large...)
		}
		for _, n := range sizes {
			for _, l := range codeLayouts(rng, dims) {
				checkCodeBound(t, rng, l, n)
			}
		}
	}
	// More dimensions than CodeBoundBatchStride keeps offsets for on its stack.
	checkCodeBound(t, rng, codeLayouts(rng, maxStackDims+6)[0], 19)
}

// TestCodeBoundBatchUnsafeTablePanics pins the safety contract: a code byte
// that addresses past the table panics on every backend (the dispatcher
// refuses the assembly unless each row start leaves 256 entries) instead of
// reading whatever lies behind the table.
func TestCodeBoundBatchUnsafeTablePanics(t *testing.T) {
	backing := make([]float64, 2*codeRowLen)
	for _, tableLen := range []int{1, 16, 255} {
		codesT := make([]uint8, 16)
		codesT[11] = uint8(tableLen) // first index outside the one row
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("table of %d entries: code %d read outside it without panicking", tableLen, tableLen)
				}
			}()
			CodeBoundBatch(backing[:tableLen], []int{0}, codesT, make([]float64, 16))
		}()
	}
}

func TestTranspose8(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 7, 33} {
		dims := 3
		src := make([]uint8, n*dims)
		for i := range src {
			src[i] = uint8(rng.Intn(256))
		}
		dst := make([]uint8, len(src))
		Transpose8(src, dims, dst)
		for i := 0; i < n; i++ {
			for d := 0; d < dims; d++ {
				if dst[d*n+i] != src[i*dims+d] {
					t.Fatalf("n=%d dst[%d*%d+%d] = %d, want %d", n, d, n, i, dst[d*n+i], src[i*dims+d])
				}
			}
		}
	}
}

// blockOrders returns legal orders for a series of length n — permutations
// of the multiples of BlockLen below n: the identity and the reversal, which
// are every legal order up to two blocks (all of tailLengths' dense
// 0..2·16+15 range), and four seeded shuffles.
func blockOrders(rng *rand.Rand, n int) [][]int {
	nb := n / BlockLen
	orders := make([][]int, 6)
	for i := range orders {
		orders[i] = rng.Perm(nb)
	}
	for b := 0; b < nb; b++ {
		orders[0][b], orders[1][b] = b, nb-1-b
	}
	for _, starts := range orders {
		for i := range starts {
			starts[i] *= BlockLen
		}
	}
	return orders
}

// hostileStarts returns a slice no Order would hold — too many entries,
// negative, unaligned, past the end — which the kernels must still answer
// identically and without reading outside the series.
func hostileStarts(rng *rand.Rand, n int) []int {
	starts := []int{-1, n, n - BlockLen + 1, math.MaxInt, math.MinInt, 3}
	for i := 0; i < n/BlockLen+2; i++ {
		starts = append(starts, rng.Intn(2*n+1)-n/2)
	}
	return starts
}

// orderedThresholds returns the adversarial abandon thresholds of one
// (q, c, starts) case: 0, +Inf, NaN, half the full sum, and every distinct
// block-boundary partial sum exactly — the threshold at which `partial >
// thr` is decided by the last bit.
func orderedThresholds(q, c []float32, starts []int) []float64 {
	full := squaredDistEAOrderedBlockedGo(q, c, starts, math.Inf(1))
	thrs := []float64{0, math.Inf(1), math.NaN(), full / 2, full}
	for thr := math.Inf(-1); ; {
		partial := squaredDistEAOrderedBlockedGo(q, c, starts, thr)
		if !(partial > thr) {
			return thrs
		}
		thrs = append(thrs, partial)
		thr = partial
	}
}

// TestOrderedIdentityMatchesUnordered pins the claim that the reordered
// kernel is the unordered one with a permuted block sequence: under the
// identity order the two return the same bits, abandoned or not.
func TestOrderedIdentityMatchesUnordered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range tailLengths() {
		q, c := misalignF32(rng, n, 1), misalignF32(rng, n, 2)
		ident := make([]int, n/BlockLen)
		for b := range ident {
			ident[b] = b * BlockLen
		}
		for _, thr := range orderedThresholds(q, c, ident) {
			bound := thr / (1 + eaRelSlack)
			got, want := SquaredDistEAOrderedBlocked(q, c, ident, bound), SquaredDistEABlocked(q, c, bound)
			if !bitEq(got, want) {
				t.Fatalf("n=%d bound=%v: identity-ordered %v, unordered %v", n, bound, got, want)
			}
		}
	}
}

// FuzzSquaredDistEABlocked fuzzes the abandon-bound space of the blocked
// kernels: both backends must agree bitwise for arbitrary data, every bound
// including NaN and negatives, and a seeded legal block order.
func FuzzSquaredDistEABlocked(f *testing.F) {
	f.Add(int64(1), 17, 0.5)
	f.Add(int64(2), 33, math.Inf(1))
	f.Add(int64(3), 0, 0.0)
	f.Add(int64(4), 129, 1e300)
	f.Add(int64(5), 47, math.NaN())
	f.Add(int64(6), 256, -1.0)
	f.Fuzz(func(t *testing.T, seed int64, n int, bound float64) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := misalignF32(rng, n, int(seed&3))
		c := misalignF32(rng, n, int(seed>>2&3))
		thr := eaThreshold(bound)
		ref := squaredDistEABlockedGo(q, c, thr)
		if got := SquaredDistEABlocked(q, c, bound); !bitEq(got, ref) {
			t.Fatalf("dispatched %v, go %v", got, ref)
		}
		starts := rng.Perm(n / BlockLen)
		for i := range starts {
			starts[i] *= BlockLen
		}
		refOrd := squaredDistEAOrderedBlockedGo(q, c, starts, thr)
		if got := SquaredDistEAOrderedBlocked(q, c, starts, bound); !bitEq(got, refOrd) {
			t.Fatalf("ordered dispatched %v, go %v", got, refOrd)
		}
	})
}

// FuzzSquaredDistEAOrderedBlocked fuzzes what the reordered kernel adds to
// the unordered one — the block sequence: the fuzzer owns the starts
// themselves (eight raw values, repeated to cover the series), legal or
// not, and both backends must agree bitwise around every block-boundary
// partial sum without reading outside q and c.
func FuzzSquaredDistEAOrderedBlocked(f *testing.F) {
	f.Add(int64(1), 47, 0, 16, 0, 0, 0, 0, 0, 0)
	f.Add(int64(2), 256, 240, 0, 128, 16, 64, 32, 208, 96)
	f.Add(int64(3), 33, -1, 18, 1<<30, 17, 3, -16, 32, 33)
	f.Add(int64(4), 15, 0, 0, 0, 0, 0, 0, 0, 0)
	f.Fuzz(func(t *testing.T, seed int64, n int, s0, s1, s2, s3, s4, s5, s6, s7 int) {
		if n < 0 || n > 1<<12 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := misalignF32(rng, n, int(seed&3))
		c := misalignF32(rng, n, int(seed>>2&3))
		raw := [8]int{s0, s1, s2, s3, s4, s5, s6, s7}
		starts := make([]int, n/BlockLen+int(seed>>4&3))
		for i := range starts {
			starts[i] = raw[i%len(raw)] + i/len(raw)*len(raw)*BlockLen
		}
		for _, thr := range orderedThresholds(q, c, starts) {
			bound := thr / (1 + eaRelSlack)
			ref := squaredDistEAOrderedBlockedGo(q, c, starts, eaThreshold(bound))
			if got := SquaredDistEAOrderedBlocked(q, c, starts, bound); !bitEq(got, ref) {
				t.Fatalf("starts=%v bound=%v: dispatched %v, go %v", starts, bound, got, ref)
			}
		}
	})
}

// widen returns q converted to float64, the query form of ScanRun.
func widen(q []float32) []float64 {
	w := make([]float64, len(q))
	for i, v := range q {
		w[i] = float64(v)
	}
	return w
}

// runRef is what the run kernel must return for n rows of len(q) values:
// the first row on which the per-candidate kernel (float32 query, an abandon
// test after every block) returns a sum not above thr, with that sum, or
// (n, 0). perRow is that kernel: the dispatched entry or the Go twin.
func runRef(q, rows []float32, n int, thr float64, perRow func(c []float32) float64) (int, float64) {
	l := len(q)
	for r := 0; r < n; r++ {
		if d := perRow(rows[r*l : (r+1)*l]); !(d > thr) {
			return r, d
		}
	}
	return n, 0
}

// runThresholds returns the adversarial thresholds of one run: 0, +Inf,
// NaN, a negative one, every row's full sum exactly and the float64 just
// below it (the row passes at the first and fails at the second), and
// every block-boundary partial sum of the first row.
func runThresholds(q, rows []float32, n int, starts []int) []float64 {
	thrs := []float64{0, math.Inf(1), math.NaN(), -1}
	l := len(q)
	for r := 0; r < n; r++ {
		full := squaredDistEAOrderedBlockedGo(q, rows[r*l:(r+1)*l], starts, math.Inf(1))
		thrs = append(thrs, full, math.Nextafter(full, math.Inf(-1)))
	}
	if n > 0 {
		thrs = append(thrs, orderedThresholds(q, rows[:l], starts)...)
	}
	return thrs
}

// runCounts is the run lengths the run-kernel suites walk: empty, one row,
// and several, so a run that passes late and one that passes nothing occur.
var runCounts = []int{0, 1, 2, 3, 7, 20}

// TestScanRunMatchesPerCandidate pins ScanRun, on whichever backend is
// dispatched, to a loop of the per-candidate kernel that tests for an
// abandon after every block: the same row passes, with the same bits,
// although the run kernel tests less often and reads a widened query —
// over every tail length, arena-view offsets, legal and hostile block
// starts, and thresholds at and just below each row's sum.
func TestScanRunMatchesPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, l := range tailLengths() {
		for off := 0; off < 3; off++ {
			q := misalignF32(rng, l, off)
			qw := widen(q)
			for _, n := range runCounts {
				rows := misalignF32(rng, n*l, off+1)
				for _, starts := range append(blockOrders(rng, l), hostileStarts(rng, l)) {
					for _, thr := range runThresholds(q, rows, n, starts) {
						bound := thr / (1 + eaRelSlack)
						thr := eaThreshold(bound)
						wantNext, want := runRef(q, rows, n, thr, func(c []float32) float64 {
							return SquaredDistEAOrderedBlocked(q, c, starts, bound)
						})
						next, got := ScanRun(qw, rows, n, starts, bound)
						if next != wantNext || !bitEq(got, want) {
							t.Fatalf("l=%d off=%d n=%d starts=%v bound=%v: run (%d, %v), per-candidate (%d, %v)",
								l, off, n, starts, bound, next, got, wantNext, want)
						}
					}
				}
			}
		}
	}
}

// TestScanRunRowsTooShortPanics: the row count is the one argument of the
// run kernel that addresses memory and no clamp covers, so a run longer
// than its rows, or a negative one, panics on every backend.
func TestScanRunRowsTooShortPanics(t *testing.T) {
	qw := make([]float64, 32)
	rows := make([]float32, 3*32+31)
	for _, n := range []int{4, -1, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d over %d values of rows did not panic", n, len(rows))
				}
			}()
			ScanRun(qw, rows, n, []int{0, 16}, math.Inf(1))
		}()
	}
	if next, sum := ScanRun(qw, rows, 3, []int{0, 16}, math.Inf(1)); next != 0 || sum != 0 {
		t.Fatalf("zero rows against a zero query: (%d, %v), want (0, 0)", next, sum)
	}
}

// FuzzScanRun fuzzes the run kernel's arguments — the rows' data and
// count, the block starts (legal or not) and the bound — against the Go
// per-candidate loop: both must name the same row with the same bits,
// also when the bound is exactly one row's sum.
func FuzzScanRun(f *testing.F) {
	f.Add(int64(1), 47, 5, 0.5, 0, 16, 0, 0)
	f.Add(int64(2), 256, 9, math.Inf(1), 240, 0, 128, 16)
	f.Add(int64(3), 33, 3, 0.0, -1, 18, 1<<30, 17)
	f.Add(int64(4), 15, 0, -1.0, 0, 0, 0, 0)
	f.Add(int64(5), 64, 12, math.NaN(), 48, 32, 16, 0)
	f.Fuzz(func(t *testing.T, seed int64, l, n int, bound float64, s0, s1, s2, s3 int) {
		if l < 0 || l > 1<<10 || n < 0 || n > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		q := misalignF32(rng, l, int(seed&3))
		rows := misalignF32(rng, n*l, int(seed>>2&3))
		raw := [4]int{s0, s1, s2, s3}
		starts := make([]int, l/BlockLen+int(seed>>4&3))
		for i := range starts {
			starts[i] = raw[i%len(raw)] + i/len(raw)*len(raw)*BlockLen
		}
		bounds := []float64{bound}
		if n > 0 {
			r := int(uint64(seed) % uint64(n))
			bounds = append(bounds, squaredDistEAOrderedBlockedGo(q, rows[r*l:(r+1)*l], starts, math.Inf(1)))
		}
		for _, b := range bounds {
			thr := eaThreshold(b)
			wantNext, want := runRef(q, rows, n, thr, func(c []float32) float64 {
				return squaredDistEAOrderedBlockedGo(q, c, starts, thr)
			})
			if next, got := ScanRun(widen(q), rows, n, starts, b); next != wantNext || !bitEq(got, want) {
				t.Fatalf("starts=%v bound=%v: run (%d, %v), per-candidate go (%d, %v)", starts, b, next, got, wantNext, want)
			}
		}
	})
}

// TestFirstNonFinite pins the finite check against math.IsNaN/IsInf: every
// length through three groups of eight and beyond, on misaligned views,
// with one non-finite value (each kind, including a signalling NaN) at every
// position, beside the largest finite values and subnormals, which pass.
func TestFirstNonFinite(t *testing.T) {
	ref := func(x []float32) int {
		for i, v := range x {
			if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
				return i
			}
		}
		return -1
	}
	bad := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7f800001), math.Float32frombits(0xffffffff),
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range tailLengths() {
		for off := 0; off < 3; off++ {
			x := misalignF32(rng, n, off)
			for i := range x {
				switch i % 5 {
				case 0:
					x[i] = math.MaxFloat32
				case 1:
					x[i] = -math.SmallestNonzeroFloat32
				}
			}
			if got := FirstNonFinite(x); got != -1 {
				t.Fatalf("n=%d off=%d finite values: %d, want -1", n, off, got)
			}
			for pos := 0; pos < n; pos++ {
				for _, v := range bad {
					keep := x[pos]
					x[pos] = v
					if got, want := FirstNonFinite(x), ref(x); got != want {
						t.Fatalf("n=%d off=%d %v at %d: %d, want %d", n, off, v, pos, got, want)
					}
					x[pos] = keep
				}
			}
		}
	}
}

// FuzzCodeBoundBatch hands the fuzzer everything that addresses memory in
// the code-bound kernel: the code bytes, the row offsets (16-bit, so also
// negative and past the end) and the table length. The table is the front
// of a longer array, so a backend that indexed past len(table) would return
// what lies behind it instead of panicking. Required: the dispatched entry
// points panic exactly when the bounds-checked Go kernel does, and agree
// with it bitwise otherwise.
func FuzzCodeBoundBatch(f *testing.F) {
	seq := func(n, mod int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7 % mod)
		}
		return b
	}
	f.Add(seq(2*21, 256), []byte{0, 0, 0, 1}, uint16(512))          // two full rows: the assembly's case
	f.Add(seq(2*21, 16), []byte{0, 0, 16, 0}, uint16(32))           // short rows: Go kernel
	f.Add(seq(19, 256), []byte{44, 1}, uint16(512))                 // codes reach past the table
	f.Add(seq(3*9, 4), []byte{0, 0, 0xff, 0xff, 8, 0}, uint16(300)) // a negative offset
	f.Fuzz(func(t *testing.T, codes, rawOffs []byte, tableLen uint16) {
		dims := min(len(rawOffs)/2, 24)
		offs := make([]int, dims)
		for d := range offs {
			offs[d] = int(int16(binary.LittleEndian.Uint16(rawOffs[2*d:])))
		}
		n := len(codes) % 23
		if dims > 0 {
			n = len(codes) / dims
		}
		codesT := codes[:dims*n]
		backing := make([]float64, int(tableLen)+codeRowLen)
		rng := rand.New(rand.NewSource(int64(tableLen)))
		for i := range backing {
			backing[i] = rng.NormFloat64()
		}
		table := backing[:tableLen:tableLen]

		// score runs one formulation and reports whether it panicked.
		score := func(run func(out []float64)) (out []float64, panicked bool) {
			defer func() { panicked = recover() != nil }()
			out = make([]float64, n)
			run(out)
			return out, false
		}
		agree := func(entry string, offs []int, run func(out []float64)) {
			want, wantPanic := score(func(out []float64) { codeBoundGo(table, offs, codesT, out, 0) })
			got, gotPanic := score(run)
			if gotPanic != wantPanic {
				t.Fatalf("%s offs=%v len(table)=%d n=%d: panicked=%v, Go kernel panicked=%v", entry, offs, tableLen, n, gotPanic, wantPanic)
			}
			for i := 0; !wantPanic && i < n; i++ {
				if !bitEq(got[i], want[i]) {
					t.Fatalf("%s offs=%v len(table)=%d n=%d: out[%d] = %v, Go kernel %v", entry, offs, tableLen, n, i, got[i], want[i])
				}
			}
		}
		agree("CodeBoundBatch", offs, func(out []float64) { CodeBoundBatch(table, offs, codesT, out) })
		if dims > 0 && n > 0 {
			stride := offs[dims-1]
			strided := make([]int, dims)
			for d := range strided {
				strided[d] = d * stride
			}
			agree("CodeBoundBatchStride", strided, func(out []float64) { CodeBoundBatchStride(table, stride, codesT, out) })
		}
	})
}

// FuzzIntervalKernels fuzzes the interval kernels over arbitrary boxes.
func FuzzIntervalKernels(f *testing.F) {
	f.Add(int64(1), 5)
	f.Add(int64(2), 16)
	f.Fuzz(func(t *testing.T, seed int64, n int) {
		if n < 0 || n > 1<<10 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		v, lo, hi := intervalCase(rng, n, int(seed&3))
		w := misalignF64(rng, n, 1)
		for i := range w {
			w[i] = math.Abs(w[i])
		}
		if got, ref := IntervalDistSq(v, lo, hi), intervalDistSqGo(v, lo, hi); !bitEq(got, ref) {
			t.Fatalf("interval dispatched %v, go %v", got, ref)
		}
		got := WeightedIntervalDistSq(v, lo, hi, w)
		if ref := weightedIntervalDistSqGo(v, lo, hi, w); !bitEq(got, ref) {
			t.Fatalf("weighted dispatched %v, go %v", got, ref)
		}
	})
}

// momentsRef is BlockMoments from the definitions, in element order: per
// block √w·mean and √w·std.
func momentsRef(x []float32) []float64 {
	var out []float64
	for lo := 0; lo < len(x); lo += BlockLen {
		p := x[lo:min(lo+BlockLen, len(x))]
		w := float64(len(p))
		var sum, dev float64
		for _, v := range p {
			sum += float64(v)
		}
		for _, v := range p {
			d := float64(v) - sum/w
			dev += d * d
		}
		out = append(out, sum/math.Sqrt(w), math.Sqrt(dev))
	}
	return out
}

// TestBlockMomentsMatchesDefinition pins the dispatched kernel to the
// moments it is named after, at every tail shape: each stored value is the
// float32 nearest the definition's, up to the float64 reassociation of a
// 16-term sum.
func TestBlockMomentsMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range tailLengths() {
		x := misalignF32(rng, n, n&3)
		out := make([]float32, BlockMomentsLen(n))
		BlockMoments(x, out)
		for i, want := range momentsRef(x) {
			if got := float64(out[i]); math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("n=%d out[%d] = %v, definition %v", n, i, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a record of the wrong length did not panic")
		}
	}()
	BlockMoments(make([]float32, 17), make([]float32, 2))
}

// FuzzBlockMoments hands the kernel raw float32 bit patterns — NaNs,
// infinities, subnormals and magnitudes whose block sums overflow float32
// included: the dispatched kernel must store what the Go twin stores, bit
// for bit (any NaN for a NaN).
func FuzzBlockMoments(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(make([]byte, 4*33), uint8(1))
	f.Add([]byte("\x00\x00\x80\x7f\x00\x00\xc0\x7f\xff\xff\x7f\x7f\x01\x00\x00\x00"), uint8(3)) // +Inf, NaN, max, min subnormal
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		n := min(len(raw)/4, 1<<10)
		backing := make([]float32, n*5+int(off&3))
		x := backing[off&3:]
		// The fuzzer's values repeated five times fill whole blocks from a
		// short input.
		for i := range x {
			x[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i%n*4:]))
		}
		got := make([]float32, BlockMomentsLen(len(x)))
		want := make([]float32, len(got))
		BlockMoments(x, got)
		blocks := len(x) / BlockLen
		blockMomentsGo(x, want, 0, blocks)
		if tail := x[blocks*BlockLen:]; len(tail) > 0 {
			want[2*blocks], want[2*blocks+1] = blockMomentsTail(tail)
		}
		for i := range want {
			if got[i] != want[i] && !(got[i] != got[i] && want[i] != want[i]) {
				t.Fatalf("out[%d]: dispatched %v, go %v (x=%v)", i, got[i], want[i], x)
			}
		}
	})
}
