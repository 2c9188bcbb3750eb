// Package difftest holds what the index packages' differential tests share:
// the mode matrix and query mix every "new search ≡ reference search" test
// runs, the loop over them and its verdict. Each package keeps its own
// reference implementation in its _test.go files; only the inputs and the
// comparison live here, so the suites cannot drift apart.
package difftest

import (
	"context"
	"fmt"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// Modes is the mode matrix: every guarantee class, with the δ-stop armed and
// a node budget small enough to bite.
var Modes = map[string]core.ApproxSpec{
	"exact":     {},
	"ng":        {Mode: core.ModeNG},
	"delta-eps": {Mode: core.ModeDeltaEps, Epsilon: 1, Delta: 0.95, Seed: 3},
	"budget":    {Mode: core.ModeBudget, NodeBudget: 64},
}

// Exact is the mode matrix of a method that answers only exact queries.
var Exact = map[string]core.ApproxSpec{"exact": {}}

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

// Search is one k-NN search under a spec: a package's real search or its
// frozen reference.
type Search func(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error)

// MemberFilterChangesNothing runs got and want over modes × queries × k ∈
// {1, 5} on collection c and fails unless, every time, got returns want's
// answers (SameAnswers) after the same traversal — nodes visited, early-stop
// cause, I/O charged to c — having compared no more raw series than it.
func MemberFilterChangesNothing(t *testing.T, label string, c *core.Collection, modes map[string]core.ApproxSpec, queries []series.Series, got, want Search) {
	t.Helper()
	ctx := context.Background()
	run := func(at string, s Search, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, storage.Snapshot) {
		before := c.Counters.Snapshot()
		ms, qs, err := s(ctx, q, k, spec)
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		return ms, qs, c.Counters.Snapshot().Sub(before)
	}
	for mode, spec := range modes {
		for qi, q := range queries {
			for _, k := range []int{1, 5} {
				at := fmt.Sprintf("%s %s query %d k=%d", label, mode, qi, k)
				gotMS, gotQS, gotIO := run(at, got, q, k, spec)
				wantMS, wantQS, wantIO := run(at+" (reference)", want, q, k, spec)
				SameAnswers(t, at, gotMS, wantMS)
				if gotQS.NodesVisited != wantQS.NodesVisited || gotQS.EarlyStop != wantQS.EarlyStop {
					t.Errorf("%s: %d nodes, stop %q; reference %d, %q", at,
						gotQS.NodesVisited, gotQS.EarlyStop, wantQS.NodesVisited, wantQS.EarlyStop)
				}
				if gotIO != wantIO {
					t.Errorf("%s: I/O %s, reference %s", at, gotIO, wantIO)
				}
				if gotQS.RawSeriesExamined > wantQS.RawSeriesExamined {
					t.Errorf("%s: examined %d raw series, reference %d", at, gotQS.RawSeriesExamined, wantQS.RawSeriesExamined)
				}
			}
		}
	}
}

// RefineWork runs exact 1-NN queries through got and want and returns the
// raw series each compared in total — the count the TestRefineWorkBudget
// gates divide.
func RefineWork(t *testing.T, queries []series.Series, got, want Search) (gotRaw, wantRaw int64) {
	t.Helper()
	raw := func(s Search, q series.Series) int64 {
		_, qs, err := s(context.Background(), q, 1, core.ApproxSpec{})
		if err != nil {
			t.Fatal(err)
		}
		return qs.RawSeriesExamined
	}
	for _, q := range queries {
		gotRaw += raw(got, q)
		wantRaw += raw(want, q)
	}
	t.Logf("examined %d raw series, reference %d (1/%.1f)", gotRaw, wantRaw, float64(wantRaw)/float64(gotRaw))
	return gotRaw, wantRaw
}
