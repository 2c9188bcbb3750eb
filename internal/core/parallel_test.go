package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"hydra/internal/dataset"
	"hydra/internal/series"
)

// serialScanKNN is the reference the parallel scan must match bit-for-bit:
// the UCR-suite whole-matching scan (blocked reordered early abandoning
// against the running k-th best, on the dispatched kernel layer), exactly
// as internal/scan/ucr implements it.
func serialScanKNN(c *Collection, q series.Series, k int) []Match {
	ord := series.NewOrder(q)
	set := NewKNNSet(k)
	for i := 0; i < c.File.Len(); i++ {
		set.Add(i, series.SquaredDistEAOrderedBlocked(q, c.File.Peek(i), ord, set.Bound()))
	}
	return set.Results()
}

// TestParallelScanBitIdentical: for k in {1, 10, 100} and a spread of worker
// counts, the parallel scan must return the serial scan's exact answer —
// same IDs, bit-identical distances, same tie-breaks.
func TestParallelScanBitIdentical(t *testing.T) {
	ds := dataset.RandomWalk(337, 64, 11)
	queries := append(
		dataset.SynthRand(3, 64, 12).Queries,
		dataset.Ctrl(ds, 3, 1.5, 13).Queries...,
	)
	serial := NewCollection(ds)
	for _, k := range []int{1, 10, 100} {
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			for qi, q := range queries {
				want := serialScanKNN(serial, q, k)
				coll := NewCollection(ds)
				got, qs, err := ParallelScanKNN(context.Background(), coll, q, k, workers)
				if err != nil {
					t.Fatalf("k=%d w=%d q=%d: %v", k, workers, qi, err)
				}
				if len(got) != len(want) {
					t.Fatalf("k=%d w=%d q=%d: %d matches, want %d", k, workers, qi, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
						t.Errorf("k=%d w=%d q=%d match %d: (%d, %v), want (%d, %v)",
							k, workers, qi, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
					}
				}
				if qs.RawSeriesExamined != int64(ds.Len()) {
					t.Errorf("k=%d w=%d q=%d: examined %d, want all %d", k, workers, qi, qs.RawSeriesExamined, ds.Len())
				}
			}
		}
	}
}

// TestParallelScanTieBreaks: duplicated series force exact distance ties
// across shard boundaries; the deterministic merge must resolve them by
// ascending ID, like the serial scan.
func TestParallelScanTieBreaks(t *testing.T) {
	base := dataset.RandomWalk(40, 32, 21)
	data := make([]series.Series, 0, 120)
	for rep := 0; rep < 3; rep++ {
		for _, s := range base.Series {
			data = append(data, s) // same backing arrays: exact ties
		}
	}
	ds := &dataset.Dataset{Name: "ties", Series: data}
	q := dataset.SynthRand(1, 32, 22).Queries[0]
	serial := NewCollection(ds)
	for _, k := range []int{1, 10, 100} {
		want := serialScanKNN(serial, q, k)
		got, _, err := ParallelScanKNN(context.Background(), NewCollection(ds), q, k, 4)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Errorf("k=%d match %d: (%d, %v), want (%d, %v)",
					k, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
	}
}

// TestParallelScanAccounting: the sharded scan must charge exactly one pass
// over the file with at most one seek per worker (§4.2 accounting), and the
// query's own record must be what reached the collection's counters.
func TestParallelScanAccounting(t *testing.T) {
	ds := dataset.RandomWalk(250, 32, 31)
	q := dataset.SynthRand(1, 32, 32).Queries[0]
	for _, workers := range []int{1, 2, 4, 8} {
		coll := NewCollection(ds)
		_, qs, err := ParallelScanKNN(context.Background(), coll, q, 5, workers)
		if err != nil {
			t.Fatal(err)
		}
		snap := coll.Counters.Snapshot()
		if qs.IO != snap {
			t.Errorf("w=%d: query recorded %v, counters hold %v", workers, qs.IO, snap)
		}
		if snap.TotalBytes() != coll.File.SizeBytes() {
			t.Errorf("w=%d: moved %d bytes, want file size %d", workers, snap.TotalBytes(), coll.File.SizeBytes())
		}
		if snap.RandOps > int64(workers) {
			t.Errorf("w=%d: %d seeks, want at most one per worker", workers, snap.RandOps)
		}
	}
}

// TestParallelScanErrors covers the degenerate inputs.
func TestParallelScanErrors(t *testing.T) {
	ds := dataset.RandomWalk(10, 32, 41)
	coll := NewCollection(ds)
	if _, _, err := ParallelScanKNN(context.Background(), coll, make(series.Series, 16), 1, 2); err == nil {
		t.Error("expected error for mismatched query length")
	}
	empty := NewCollection(&dataset.Dataset{Name: "empty"})
	got, _, err := ParallelScanKNN(context.Background(), empty, series.Series{}, 1, 4)
	if err != nil || len(got) != 0 {
		t.Errorf("empty collection: got %v, %v", got, err)
	}
	// More workers than series: every series still scanned exactly once.
	q := dataset.SynthRand(1, 32, 42).Queries[0]
	res, qs, err := ParallelScanKNN(context.Background(), coll, q, 25, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 || qs.RawSeriesExamined != 10 {
		t.Errorf("got %d matches, examined %d; want 10, 10", len(res), qs.RawSeriesExamined)
	}
}

// TestBestSoFar: the shared bound starts at +Inf, only tightens, and is safe
// under concurrent hammering (-race).
func TestBestSoFar(t *testing.T) {
	b := NewBestSoFar()
	if !math.IsInf(b.Load(), 1) {
		t.Errorf("initial bound %v, want +Inf", b.Load())
	}
	b.Tighten(5)
	b.Tighten(9) // larger: ignored
	if got := b.Load(); got != 5 {
		t.Errorf("bound %v, want 5", got)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 100; i >= w; i-- {
				b.Tighten(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := b.Load(); got != 0 {
		t.Errorf("bound after concurrent tightening %v, want 0", got)
	}
}

// TestKNNSetMerge: merging shard sets must equal feeding all candidates to
// one set, including tie resolution.
func TestKNNSetMerge(t *testing.T) {
	all := NewKNNSet(4)
	a, b := NewKNNSet(4), NewKNNSet(4)
	cands := []struct {
		id int
		d  float64
	}{{0, 3}, {1, 1}, {2, 3}, {3, 7}, {4, 1}, {5, 3}, {6, 0.5}, {7, 9}}
	for i, c := range cands {
		all.Add(c.id, c.d)
		if i < 4 {
			a.Add(c.id, c.d)
		} else {
			b.Add(c.id, c.d)
		}
	}
	a.Merge(b)
	want, got := all.Results(), a.Results()
	if len(got) != len(want) {
		t.Fatalf("merged %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("match %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
