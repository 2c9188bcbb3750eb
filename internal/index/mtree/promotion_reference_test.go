package mtree

import (
	"math"
	"math/rand"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
)

// refPartitionRadii is the promotion score as it was before the distance
// matrix: both distances of every entry recomputed for every candidate pair.
// It is the reference pairRadii must match bit for bit.
func refPartitionRadii(c *core.Collection, entries []entry, o1, o2 int) (r1, r2 float64) {
	dist := func(a, b int) float64 { return series.Dist(c.File.Peek(a), c.File.Peek(b)) }
	for _, e := range entries {
		d1, d2 := dist(e.id, o1), dist(e.id, o2)
		ext := e.radius // 0 for data entries
		if d1 <= d2 {
			r1 = math.Max(r1, d1+ext)
		} else {
			r2 = math.Max(r2, d2+ext)
		}
	}
	return r1, r2
}

// refSplit is the historical split of a node's entries: mM_RAD promotion by
// refPartitionRadii over the strided sample, then generalized-hyperplane
// partitioning with the distances computed once more.
func refSplit(c *core.Collection, entries []entry, leaf bool) (e1, e2 entry, left, right []entry) {
	dist := func(a, b int) float64 { return series.Dist(c.File.Peek(a), c.File.Peek(b)) }
	step := 1
	if len(entries) > maxPromotionSamples {
		step = len(entries) / maxPromotionSamples
	}
	bestI, bestJ, bestRad := 0, 1, math.Inf(1)
	for i := 0; i < len(entries); i += step {
		for j := i + step; j < len(entries); j += step {
			r1, r2 := refPartitionRadii(c, entries, entries[i].id, entries[j].id)
			if m := math.Max(r1, r2); m < bestRad {
				bestI, bestJ, bestRad = i, j, m
			}
		}
	}
	o1, o2 := entries[bestI].id, entries[bestJ].id
	var r1, r2 float64
	for _, e := range entries {
		d1, d2 := dist(e.id, o1), dist(e.id, o2)
		ext := 0.0
		if !leaf {
			ext = e.radius
		}
		if d1 <= d2 {
			e.distToParent = d1
			left = append(left, e)
			r1 = math.Max(r1, d1+ext)
		} else {
			e.distToParent = d2
			right = append(right, e)
			r2 = math.Max(r2, d2+ext)
		}
	}
	return entry{id: o1, radius: r1}, entry{id: o2, radius: r2}, left, right
}

func sameEntries(got, want []entry) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].id != want[i].id || got[i].child != want[i].child ||
			math.Float64bits(got[i].radius) != math.Float64bits(want[i].radius) ||
			math.Float64bits(got[i].distToParent) != math.Float64bits(want[i].distToParent) {
			return false
		}
	}
	return true
}

// checkPromotion splits a node holding entries and requires what the
// reference computes: Float64bits-equal radii for every sampled pair, the
// same promoted pair, the same partition with the same parent distances and
// covering radii — and counts one distance per matrix cell, plus the two
// parent distances of a non-root split.
func checkPromotion(t *testing.T, c *core.Collection, entries []entry, leaf bool) {
	t.Helper()
	ix := &Index{c: c, cap: len(entries) - 1}
	step, samples := promotionStep(len(entries))

	i1, i2, _, _ := ix.promote(entries)
	if want := int64(samples * len(entries)); ix.distCalcsBuild != want {
		t.Fatalf("%d entries: promotion computed %d distances, want the matrix's %d", len(entries), ix.distCalcsBuild, want)
	}
	for i := 0; i < samples; i++ {
		for j := i + 1; j < samples; j++ {
			r1, r2 := pairRadii(entries, ix.promotionRow(i, len(entries)), ix.promotionRow(j, len(entries)))
			w1, w2 := refPartitionRadii(c, entries, entries[i*step].id, entries[j*step].id)
			if math.Float64bits(r1) != math.Float64bits(w1) || math.Float64bits(r2) != math.Float64bits(w2) {
				t.Fatalf("%d entries, pair (%d, %d): radii %v %v, reference %v %v", len(entries), i*step, j*step, r1, r2, w1, w2)
			}
		}
	}
	we1, we2, wantLeft, wantRight := refSplit(c, entries, leaf)
	if entries[i1].id != we1.id || entries[i2].id != we2.id {
		t.Fatalf("%d entries: promoted (%d, %d), reference (%d, %d)", len(entries), entries[i1].id, entries[i2].id, we1.id, we2.id)
	}

	// The split itself, under a parent whose routing object is entry 0's.
	parentObj := entries[0].id
	n := &node{leaf: leaf, depth: 1, routingObj: parentObj, entries: append([]entry{}, entries...)}
	parent := &node{routingObj: parentObj, entries: []entry{{id: parentObj, child: n}}}
	ix.distCalcsBuild = 0
	if got := ix.split(n, parent, 0); got != parent {
		t.Fatalf("split did not hand back the parent")
	}
	if want := int64(samples*len(entries) + 2); ix.distCalcsBuild != want {
		t.Fatalf("%d entries: split computed %d distances, want %d", len(entries), ix.distCalcsBuild, want)
	}
	for b, want := range []struct {
		e       entry
		members []entry
	}{{we1, wantLeft}, {we2, wantRight}} {
		got := parent.entries[b]
		wantDP := series.Dist(c.File.Peek(want.e.id), c.File.Peek(parentObj))
		if got.id != want.e.id || math.Float64bits(got.radius) != math.Float64bits(want.e.radius) ||
			math.Float64bits(got.distToParent) != math.Float64bits(wantDP) {
			t.Fatalf("%d entries, routing entry %d: (%d, r %v, dp %v), reference (%d, r %v, dp %v)",
				len(entries), b, got.id, got.radius, got.distToParent, want.e.id, want.e.radius, wantDP)
		}
		if got.child.routingObj != want.e.id || got.child.leaf != leaf || !sameEntries(got.child.entries, want.members) {
			t.Fatalf("%d entries, child %d: partition differs from the reference's", len(entries), b)
		}
	}
}

// TestPromotionMatchesReference is the differential oracle of the split
// path: scoring pairs from two rows of one distance matrix, and partitioning
// with the winner's rows, decides exactly what recomputing every distance
// per pair (and once more to partition) decided.
func TestPromotionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ds := dataset.RandomWalk(300, 48, 5)
	c := core.NewCollection(ds)
	dataEntries := func(ids []int) []entry {
		out := make([]entry, len(ids))
		for i, id := range ids {
			out[i] = entry{id: id, distToParent: rng.Float64()}
		}
		return out
	}

	t.Run("leaf splits", func(t *testing.T) {
		// Every stride regime of promotionStep: step 1 up to 23 entries
		// (as many samples as entries), then 2, then 4.
		for _, size := range []int{2, 3, 12, 13, 17, 23, 24, 25, 48} {
			checkPromotion(t, c, dataEntries(rng.Perm(ds.Len())[:size]), true)
		}
	})

	t.Run("routing-level splits", func(t *testing.T) {
		// Routing entries carry covering radii, which enter both the score
		// and the new radii; zero radii and one dominating radius included.
		for _, size := range []int{3, 17, 25} {
			entries := dataEntries(rng.Perm(ds.Len())[:size])
			for i := range entries {
				entries[i].child = &node{leaf: true}
				entries[i].radius = float64(i%4) * rng.Float64() * 5
			}
			entries[size/2].radius = 100
			checkPromotion(t, c, entries, false)
		}
	})

	t.Run("duplicate series", func(t *testing.T) {
		// Distance-0 ties everywhere: the first pair at the minimum wins
		// and d1 <= d2 sends ties left, as before.
		a, b := ds.Series[1], ds.Series[2]
		var flat []float32
		for _, pick := range []int{0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 1} {
			flat = append(flat, [][]float32{a, b}[pick]...)
		}
		dup := core.NewCollection(dataset.FromFlat("dup", flat, 17, 48))
		ids := make([]int, 17)
		for i := range ids {
			ids[i] = i
		}
		checkPromotion(t, dup, dataEntries(ids), true)
		same := core.NewCollection(dataset.FromFlat("same", flat[:48*2], 2, 48))
		checkPromotion(t, same, dataEntries([]int{0, 1}), true)
	})
}
