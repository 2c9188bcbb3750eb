package main

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hydra"
)

const (
	seriesLen = 256
	topK      = 10
	// listLen is the usual query list's length.
	listLen = 256
	// naiveChecked is how many of a workload's reference answers are
	// re-derived by the naive float64 loop.
	naiveChecked = 32
	// naiveRelTol is how far a kernel distance may sit from the naive
	// float64 one: the SIMD kernels reassociate the sum.
	naiveRelTol = 1e-6
)

// genCollection is the workload's collection: n z-normalized random walks.
func genCollection(n int, seed int64) (*hydra.Dataset, error) {
	d, err := hydra.Generate("synthetic", n, seriesLen, seed)
	if err != nil {
		return nil, fmt.Errorf("generating %d series: %w", n, err)
	}
	return d, nil
}

// genQueries is a workload's query list over d: n/2 random-walk queries
// interleaved with n/2 noised collection members (the paper's Synth-Rand and
// Synth-Ctrl), so any prefix or cycle holds both kinds evenly.
func genQueries(d *hydra.Dataset, n int, seed int64) [][]float32 {
	rnd := hydra.RandomWorkload(n/2, seriesLen, seed)
	ctrl := hydra.ControlledWorkload(d, n/2, 1.0, seed+1)
	qs := make([][]float32, 0, n)
	for i := 0; i < n/2; i++ {
		qs = append(qs, rnd.Query(i), ctrl.Query(i))
	}
	return qs
}

// referenceAnswers runs every query on e, an exact engine, once.
func referenceAnswers(e *hydra.Engine, qs [][]float32) ([][]hydra.Match, error) {
	ref := make([][]hydra.Match, len(qs))
	for i, q := range qs {
		m, err := e.Query(context.Background(), q, topK)
		if err != nil {
			return nil, fmt.Errorf("reference query %d on %s: %w", i, e.Method(), err)
		}
		ref[i] = m
	}
	return ref, nil
}

// naiveKNN is the checker's ground truth: a plain float64 loop over every
// series, no kernels, no early abandoning.
func naiveKNN(d *hydra.Dataset, q []float32, k int) []hydra.Match {
	all := make([]hydra.Match, d.Len())
	for i := range all {
		var sum float64
		for j, v := range d.Series(i) {
			diff := float64(q[j]) - float64(v)
			sum += diff * diff
		}
		all[i] = hydra.Match{ID: i, Dist: math.Sqrt(sum)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].ID < all[b].ID
	})
	return all[:min(k, len(all))]
}

// checkAgainstNaive re-derives the first naiveChecked reference answers
// with naiveKNN: IDs equal, distances within naiveRelTol relative.
func checkAgainstNaive(d *hydra.Dataset, qs [][]float32, ref [][]hydra.Match) error {
	for i := 0; i < min(naiveChecked, len(qs)); i++ {
		want := naiveKNN(d, qs[i], topK)
		if !closeAnswer(ref[i], want) {
			return fmt.Errorf("reference answer %d is %v, the naive scan says %v", i, ref[i], want)
		}
	}
	return nil
}

// sameAnswer is the exact workloads' check: same IDs in the same order and
// bit-identical distances.
func sameAnswer(got, want []hydra.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			return false
		}
	}
	return true
}

// closeAnswer is sameAnswer with distances compared to naiveRelTol instead
// of bit for bit. M-tree needs it: it sums squared differences in another
// order than the scan, so its distances differ from the reference's in the
// last place while its IDs agree.
func closeAnswer(got, want []hydra.Match) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Abs(got[i].Dist-want[i].Dist) > naiveRelTol*math.Max(want[i].Dist, 1) {
			return false
		}
	}
	return true
}

// recallAt is the share of the exact answer's IDs that got holds.
func recallAt(got, exact []hydra.Match) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int]bool, len(exact))
	for _, m := range exact {
		in[m.ID] = true
	}
	hit := 0
	for _, m := range got {
		if in[m.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// exactResult grades one answer of an exact workload with same, which is
// sameAnswer for every class but M-tree's.
func exactResult(got, want []hydra.Match, err error, same func(got, want []hydra.Match) bool) (ok bool, recall float64) {
	if err != nil {
		return false, 0
	}
	return same(got, want), recallAt(got, want)
}

// wellFormed is what every approximate answer must still satisfy: at most k
// distinct live IDs in ascending distance order. Fewer than k, even none, is
// a legal ng answer — the one leaf the query descends to may hold that few —
// and costs recall, not correctness.
func wellFormed(got []hydra.Match, k, collection int) bool {
	if len(got) > k {
		return false
	}
	seen := make(map[int]bool, k)
	for i, m := range got {
		if m.ID < 0 || m.ID >= collection || seen[m.ID] || i > 0 && m.Dist < got[i-1].Dist {
			return false
		}
		seen[m.ID] = true
	}
	return true
}
