// Package difftest holds what the index packages' differential tests share:
// the mode matrix and query mix every "new search ≡ reference search" test
// runs, and the bit-level answer comparison. Each package keeps its own
// reference implementation in its _test.go files; only the inputs and the
// verdict live here, so the three suites cannot drift apart.
package difftest

import (
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
)

// Modes is the mode matrix: every guarantee class, with the δ-stop armed and
// a node budget small enough to bite.
var Modes = map[string]core.ApproxSpec{
	"exact":     {},
	"ng":        {Mode: core.ModeNG},
	"delta-eps": {Mode: core.ModeDeltaEps, Epsilon: 1, Delta: 0.95, Seed: 3},
	"budget":    {Mode: core.ModeBudget, NodeBudget: 64},
}

// Queries mixes the workloads a per-series lower bound meets: random walks
// (far from every member), noisy copies of members (close to one), a member
// itself (distance and bound both 0: the lb = d tie) and, last, the constant
// query (an all-zero summary, on the edge of every symbol region).
func Queries(ds *dataset.Dataset, seed int64) []series.Series {
	n := ds.SeriesLen()
	qs := dataset.SynthRand(4, n, seed+100).Queries
	qs = append(qs, dataset.Ctrl(ds, 4, 1.0, seed+200).Queries...)
	return append(qs, ds.Series[int(seed)*37%ds.Len()], make(series.Series, n))
}

// SameAnswers fails the test unless got holds the reference's matches: the
// same IDs in the same order with Float64bits-equal distances.
func SameAnswers(t *testing.T, at string, got, want []core.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, reference %d", at, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Errorf("%s match %d: %+v, reference %+v", at, i, got[i], want[i])
		}
	}
}
