package hydra_test

import (
	"context"
	"math"
	"testing"

	"hydra"
)

// TestExactTiesBreakByID is the degenerate-data probe of the exact
// contract: every exact method answers what the UCR-Suite scan answers,
// IDs included, with distances equal at the last bit, when distances tie.
// Every fourth of 400 z-normalised walks is all zero, so those rows tie
// with one another; a second copy of the 20 queries has one element set to
// 1e30, so every distance rounds to the same float64. Ties must break by
// ascending ID, so a prune predicate may skip a node or member only when
// its bound exceeds the k-th distance, not when it equals it. MASS is left
// out: its FFT distances are not bit-identical to the scan's.
func TestExactTiesBreakByID(t *testing.T) {
	rows := rawRows(400, 64, 71)
	for i := 0; i < len(rows); i += 4 {
		clear(rows[i])
	}
	d := datasetFrom(t, rows)
	walks := datasetFrom(t, rawRows(20, 64, 72))
	var queries [][]float32
	for i := 0; i < walks.Len(); i++ {
		queries = append(queries, walks.Series(i))
	}
	for i := 0; i < walks.Len(); i++ {
		queries = append(queries, withValue(walks.Series(i), i%64, 1e30))
	}
	ctx := context.Background()
	scan, err := hydra.Open("", hydra.WithData(d), hydra.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 3, 10}
	want := make([][][]hydra.Match, len(ks))
	for ki, k := range ks {
		for _, q := range queries {
			m, err := scan.Query(ctx, q, k)
			if err != nil {
				t.Fatal(err)
			}
			want[ki] = append(want[ki], m)
		}
	}
	for _, name := range hydra.Methods() {
		if name == "UCR-Suite" || name == "MASS" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			e, err := hydra.BuildIndex(ctx, name, hydra.WithData(d))
			if err != nil {
				t.Fatal(err)
			}
			differ := 0
			for ki, k := range ks {
				for qi, q := range queries {
					got, err := e.Query(ctx, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(got, want[ki][qi]) {
						if differ++; differ <= 3 {
							t.Errorf("k=%d query %d: %v, scan %v", k, qi, got, want[ki][qi])
						}
					}
				}
			}
			if differ > 0 {
				t.Errorf("%d of %d answers differ from the scan", differ, len(ks)*len(queries))
			}
		})
	}
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
