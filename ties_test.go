package hydra_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"hydra"
)

// tieShape is one degenerate collection with the queries, the ks and the
// build options it is probed with.
type tieShape struct {
	name    string
	rows    [][]float32
	queries [][]float32
	ks      []int
	opts    []hydra.Option
}

// tieShapes are the degenerate collections of TestExactTiesBreakByID. Each
// holds distances that tie, exactly or after rounding:
//   - zero rows: every fourth of 400 z-normalised walks is all zero, and a
//     second copy of the walk queries has one element set to 1e30, so every
//     distance rounds to the same float64;
//   - constant rows: every fifth of 300 walks is constant, so it
//     z-normalises to zeros, and an all-7 constant query is equally far from
//     each of them;
//   - a 1e19 query element, over plain walks and over walks where every
//     third row repeats the one before it (leaf size 8), at 1e19, 1e20 and
//     3e38: the distances round to a few float64 values;
//   - duplicates at scattered IDs, a collection of one series, and k >= n.
func tieShapes(t *testing.T) []tieShape {
	walks := func(n int, seed int64) [][]float32 {
		d := datasetFrom(t, rawRows(n, 64, seed))
		out := make([][]float32, n)
		for i := range out {
			out[i] = d.Series(i)
		}
		return out
	}
	with := func(qs [][]float32, vs ...float32) [][]float32 {
		var out [][]float32
		for _, v := range vs {
			for i, q := range qs {
				out = append(out, withValue(q, (7*i)%len(q), v))
			}
		}
		return out
	}
	ks := []int{1, 3, 10}

	zero := rawRows(400, 64, 71)
	for i := 0; i < len(zero); i += 4 {
		clear(zero[i])
	}
	constant := rawRows(300, 64, 73)
	for i := 0; i < len(constant); i += 5 {
		for j := range constant[i] {
			constant[i][j] = float32(i)
		}
	}
	sevens := make([]float32, 64)
	for j := range sevens {
		sevens[j] = 7
	}
	dup := rawRows(300, 64, 75)
	for i := 2; i < len(dup); i += 3 {
		dup[i] = dup[i-1]
	}
	scattered := rawRows(200, 64, 77)
	rng := rand.New(rand.NewSource(78))
	for i := 0; i < 40; i++ {
		scattered[rng.Intn(len(scattered))] = scattered[rng.Intn(len(scattered))]
	}

	q20, q12 := walks(20, 72), walks(12, 74)
	return []tieShape{
		{name: "zero rows", rows: zero, queries: append(q20, with(q20, 1e30)...), ks: ks},
		{name: "constant rows", rows: constant, queries: append([][]float32{sevens, constant[0], constant[5]}, q12[:4]...), ks: ks},
		{name: "1e19 element", rows: rawRows(300, 64, 76), queries: with(q12, 1e19), ks: ks},
		{name: "1e19 element, duplicate rows", rows: dup, queries: with(q12, 1e19, 1e20, 3e38), ks: ks,
			opts: []hydra.Option{hydra.WithLeafSize(8)}},
		{name: "scattered duplicates", rows: scattered, queries: append(q12, scattered[:8]...), ks: ks},
		{name: "one series", rows: rawRows(1, 64, 79), queries: q12[:4], ks: []int{1, 3}},
		{name: "k at least n", rows: rawRows(12, 64, 80), queries: q12[:4], ks: []int{12, 20}},
	}
}

// TestExactTiesBreakByID is the degenerate-data probe of the exact
// contract: every exact method answers what the serial UCR-Suite scan
// answers, IDs included, with distances equal at the last bit, when
// distances tie (tieShapes). Ties must break by ascending ID, so a prune
// predicate may skip a node or member only when its bound exceeds the k-th
// distance, not when it equals it, and a bound must never round above the
// distance the refine kernel computes. The scan at its default worker cap is
// held to its serial answers too. MASS is left out: its FFT distances are
// not bit-identical to the scan's.
func TestExactTiesBreakByID(t *testing.T) {
	ctx := context.Background()
	type probe struct {
		tieShape
		data *hydra.Dataset
		want [][][]hydra.Match // by k, then query
	}
	var probes []probe
	for _, sh := range tieShapes(t) {
		p := probe{tieShape: sh, data: datasetFrom(t, sh.rows)}
		scan, err := hydra.Open("", hydra.WithData(p.data), hydra.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		p.want = answerAll(t, scan, sh)
		probes = append(probes, p)
	}
	for _, name := range hydra.Methods() {
		if name == "MASS" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			for _, p := range probes {
				var e *hydra.Engine
				var err error
				if name == "UCR-Suite" {
					e, err = hydra.Open("", hydra.WithData(p.data))
				} else {
					e, err = hydra.BuildIndex(ctx, name, append([]hydra.Option{hydra.WithData(p.data)}, p.opts...)...)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, differ := answerAll(t, e, p.tieShape), 0
				for ki, k := range p.ks {
					for qi := range p.queries {
						if !sameBits(got[ki][qi], p.want[ki][qi]) {
							if differ++; differ <= 3 {
								t.Errorf("%s, k=%d query %d: %v, scan %v", p.name, k, qi, got[ki][qi], p.want[ki][qi])
							}
						}
					}
				}
				if differ > 0 {
					t.Errorf("%s: %d of %d answers differ from the scan", p.name, differ, len(p.ks)*len(p.queries))
				}
			}
		})
	}
}

// answerAll runs every query of sh at every k of sh against e.
func answerAll(t *testing.T, e *hydra.Engine, sh tieShape) [][][]hydra.Match {
	t.Helper()
	out := make([][][]hydra.Match, len(sh.ks))
	for ki, k := range sh.ks {
		for _, q := range sh.queries {
			m, err := e.Query(context.Background(), q, k)
			if err != nil {
				t.Fatal(err)
			}
			out[ki] = append(out[ki], m)
		}
	}
	return out
}

// sameBits reports whether two answers hold the same IDs in the same order
// at bit-identical distances.
func sameBits(a, b []hydra.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}
