package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hydra/internal/series"
	"hydra/internal/storage"
)

// synopsisCases returns collections of length-n series chosen to sit where
// a block-moment bound is weakest or rounding can break it: random walks,
// duplicates, constants, piecewise-constant series that change only on block
// boundaries (there the bound equals the distance mathematically), and
// un-normalised magnitudes from float32's subnormals to near its maximum.
func synopsisCases(rng *rand.Rand, n int) []series.Series {
	walk := func(scale, offset float64) series.Series {
		s := make(series.Series, n)
		var v float64
		for i := range s {
			v += rng.NormFloat64()
			s[i] = float32(offset + scale*v)
		}
		return s
	}
	steps := func(scale float64) series.Series {
		s := make(series.Series, n)
		var v float32
		for i := range s {
			if i%16 == 0 {
				v = float32(scale * rng.NormFloat64())
			}
			s[i] = v
		}
		return s
	}
	constant := func(v float32) series.Series {
		s := make(series.Series, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	var out []series.Series
	for i := 0; i < 6; i++ {
		out = append(out, walk(1, 0).ZNormalize(), steps(1), steps(1e-3))
	}
	out = append(out, out[0].Clone(), out[1].Clone()) // duplicates
	out = append(out, constant(0), constant(1), constant(-7.25), constant(1e-41))
	out = append(out, walk(1, 1e6), walk(1e-3, 1e6), walk(1e12, 0), walk(1e-40, 0), steps(1e30), steps(1e-42))
	return out
}

// checkSynopsisBounds fails unless every (query, member) bound stays at or
// below the distance the refine kernel reports with nothing to abandon on —
// strictly below unless that distance is 0, which is what keeps a bound from
// tying a candidate the result set would still admit — and a non-finite
// distance comes with a bound of 0.
func checkSynopsisBounds(t *testing.T, at string, data, queries []series.Series) {
	t.Helper()
	f := storage.NewSeriesFile(data, &storage.Counters{})
	var syn Synopses
	syn.Extend(f, 0, f.Len())
	rec := make([]float32, syn.RecordLen())
	for qi, q := range queries {
		sq := syn.Query(q, rec)
		ord := series.NewOrder(q)
		for id := 0; id < f.Len(); id++ {
			lb := sq.Bound(id)
			d := series.SquaredDistEAOrderedBlocked(q, f.Peek(id), ord, math.Inf(1))
			if !(lb >= 0) || lb > d || lb == d && d != 0 || math.IsNaN(d) && lb != 0 {
				t.Fatalf("%s query %d member %d: bound %v, distance %v", at, qi, id, lb, d)
			}
		}
	}
}

// TestSynopsisBoundNeverExceedsDistance is the soundness property of the
// second-level filter, with every member also serving as a query (a member
// against itself, against its duplicate, constants against constants).
func TestSynopsisBoundNeverExceedsDistance(t *testing.T) {
	for _, n := range []int{1, 15, 16, 17, 250, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			data := synopsisCases(rand.New(rand.NewSource(seed)), n)
			checkSynopsisBounds(t, fmt.Sprintf("n=%d seed %d", n, seed), data, data)
		}
	}
}

// TestSynopsisBoundIsTight keeps the property test honest: a bound of 0
// would pass it. On series that are constant within every block the bound
// is the distance itself but for the slack.
func TestSynopsisBoundIsTight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 250
	data := make([]series.Series, 20)
	for i := range data {
		data[i] = make(series.Series, n)
		var v float32
		for j := range data[i] {
			if j%16 == 0 {
				v = float32(rng.NormFloat64())
			}
			data[i][j] = v
		}
	}
	f := storage.NewSeriesFile(data, &storage.Counters{})
	var syn Synopses
	syn.Extend(f, 0, 10)
	syn.Extend(f, 10, 20) // id-indexed: a second batch lands behind the first
	if got, want := syn.Bytes(), int64(20*4*2*16); got != want {
		t.Fatalf("sidecar of %d bytes, want %d", got, want)
	}
	q := data[3]
	sq := syn.Query(q, make([]float32, syn.RecordLen()))
	for id := range data {
		d := series.SquaredDist(q, data[id])
		if lb := sq.Bound(id); lb < d*(1-1e-4) {
			t.Errorf("member %d: bound %v, distance %v", id, lb, d)
		}
	}
}

// TestSynopsisNonFinitePrunesNothing: one series whose record is not finite
// (a NaN, an infinity, or block sums beyond float32) turns every bound of
// the collection to 0 rather than risk a wrong one.
func TestSynopsisNonFinitePrunesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, poison := range []float32{float32(math.NaN()), float32(math.Inf(-1)), math.MaxFloat32} {
		data := synopsisCases(rng, 40)
		bad := make(series.Series, 40)
		for i := range bad {
			bad[i] = poison
		}
		data = append(data, bad)
		f := storage.NewSeriesFile(data, &storage.Counters{})
		var syn Synopses
		syn.Extend(f, 0, f.Len())
		sq := syn.Query(data[0], make([]float32, syn.RecordLen()))
		for id := range data {
			if lb := sq.Bound(id); lb != 0 {
				t.Fatalf("poison %v member %d: bound %v", poison, id, lb)
			}
		}
	}
}

// FuzzSynopsisBound hands the property raw float32 bit patterns for a query
// and a member (repeated to the fuzzed length), beside a well-behaved
// collection that sets the norm scale.
func FuzzSynopsisBound(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63}, []byte{0, 0, 0, 64}, 17)
	f.Add([]byte{0, 0, 128, 127, 1, 0, 0, 0}, []byte{255, 255, 127, 127}, 250)
	f.Add([]byte{0, 0, 192, 127}, []byte{0, 0, 128, 63, 0, 0, 128, 191}, 15)
	f.Fuzz(func(t *testing.T, rawQ, rawC []byte, n int) {
		if n < 1 || n > 1<<10 || len(rawQ) < 4 || len(rawC) < 4 {
			t.Skip()
		}
		fill := func(raw []byte) series.Series {
			s := make(series.Series, n)
			for i := range s {
				s[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i%(len(raw)/4)*4:]))
			}
			return s
		}
		rng := rand.New(rand.NewSource(int64(n)))
		data := append(synopsisCases(rng, n)[:8], fill(rawC))
		checkSynopsisBounds(t, "fuzz", data, []series.Series{fill(rawQ), data[0]})
	})
}
