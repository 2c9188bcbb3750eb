package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hydra/internal/dataset"
	"hydra/internal/faultpoint"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
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
// caps, the scan must return the serial scan's exact answer — same IDs,
// bit-identical distances, same tie-breaks — over a collection of several
// CancelBlock chunks, so that helpers have chunks to claim.
func TestParallelScanBitIdentical(t *testing.T) {
	ds := dataset.RandomWalk(4*CancelBlock+337, 64, 11)
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
				got, qs, err := ScanKNN(context.Background(), coll, q, k, workers, nil)
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
// across chunk boundaries; the deterministic merge must resolve them by
// ascending ID, like the serial scan.
func TestParallelScanTieBreaks(t *testing.T) {
	base := dataset.RandomWalk(40, 32, 21)
	data := make([]series.Series, 0, 40*80)
	for rep := 0; rep < 80; rep++ {
		for _, s := range base.Series {
			data = append(data, s) // same backing arrays: exact ties
		}
	}
	ds := &dataset.Dataset{Name: "ties", Series: data}
	q := dataset.SynthRand(1, 32, 22).Queries[0]
	serial := NewCollection(ds)
	for _, k := range []int{1, 10, 100} {
		want := serialScanKNN(serial, q, k)
		got, _, err := ScanKNN(context.Background(), NewCollection(ds), q, k, 4, nil)
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

// TestParallelScanAccounting: under every cap the scan must charge the
// serial pass's record — one sequential pass over the file, no seek (§4.2
// accounting) — and the query's own record must be what reached the
// collection's counters.
func TestParallelScanAccounting(t *testing.T) {
	const n, l = 2*CancelBlock + 250, 32
	ds := dataset.RandomWalk(n, l, 31)
	q := dataset.SynthRand(1, l, 32).Queries[0]
	serial := storage.Snapshot{SeqOps: n, SeqBytes: n * l * storage.BytesPerValue}
	for _, workers := range []int{1, 2, 4, 8} {
		coll := NewCollection(ds)
		_, qs, err := ScanKNN(context.Background(), coll, q, 5, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		snap := coll.Counters.Snapshot()
		if qs.IO != snap {
			t.Errorf("w=%d: query recorded %v, counters hold %v", workers, qs.IO, snap)
		}
		if snap != serial {
			t.Errorf("w=%d: charged %v, want the serial pass %v", workers, snap, serial)
		}
	}
}

// TestParallelScanErrors covers the degenerate inputs.
func TestParallelScanErrors(t *testing.T) {
	ds := dataset.RandomWalk(10, 32, 41)
	coll := NewCollection(ds)
	if _, _, err := ScanKNN(context.Background(), coll, make(series.Series, 16), 1, 2, nil); err == nil {
		t.Error("expected error for mismatched query length")
	}
	empty := NewCollection(&dataset.Dataset{Name: "empty"})
	got, _, err := ScanKNN(context.Background(), empty, series.Series{}, 1, 4, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty collection: got %v, %v", got, err)
	}
	// More workers than series: every series still scanned exactly once.
	q := dataset.SynthRand(1, 32, 42).Queries[0]
	res, qs, err := ScanKNN(context.Background(), coll, q, 25, 64, nil)
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
	b := new(BestSoFar)
	b.reset()
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

// settledGoroutines waits until the goroutine count is back to base — a
// helper that has called Done may still be on its way out — and reports
// whether it got there.
func settledGoroutines(base int) bool {
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestScanBusyCores is the busy side of the claim loop: at GOMAXPROCS=2, two
// goroutines run scan queries at once under the caps 0, 1 and 2, so a
// helper often finds the other core taken and the chunks claimed. Every
// answer is bit-identical to the serial pass's, every QueryStats equals the
// serial one, and the goroutine count returns to its baseline.
func TestScanBusyCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n, l, k = 5*CancelBlock + 77, 64, 5
	ds := dataset.RandomWalk(n, l, 51)
	coll := NewCollection(ds)
	queries := append(dataset.SynthRand(3, l, 52).Queries, dataset.Ctrl(ds, 3, 0.5, 53).Queries...)
	type answer struct {
		m  []Match
		qs stats.QueryStats
	}
	want := make([]answer, len(queries))
	for i, q := range queries {
		m, qs, err := ScanKNN(context.Background(), coll, q, k, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = answer{m, qs}
	}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 6; rep++ {
				for i, q := range queries {
					workers := (rep + g + i) % 3
					m, qs, err := ScanKNN(context.Background(), coll, q, k, workers, nil)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(m, want[i].m) {
						t.Errorf("g=%d cap=%d q=%d: %v, serial pass %v", g, workers, i, m, want[i].m)
					}
					if qs != want[i].qs {
						t.Errorf("g=%d cap=%d q=%d: stats %+v, serial pass %+v", g, workers, i, qs, want[i].qs)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if !settledGoroutines(base) {
		t.Errorf("%d goroutines after the queries, %d before", runtime.NumGoroutine(), base)
	}
}

// TestScanWorkerPanicDrill: the worker-panic faultpoint fires on the caller
// and on a helper alike, both fail the query with ErrWorkerPanic, no
// goroutine is left behind, and the next query answers exactly.
func TestScanWorkerPanicDrill(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := dataset.RandomWalk(4*CancelBlock, 32, 61)
	coll := NewCollection(ds)
	q := dataset.SynthRand(1, 32, 62).Queries[0]
	want, _, err := ScanKNN(context.Background(), coll, q, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	defer faultpoint.Disarm(faultpoint.ScanWorkerPanic)
	for _, hits := range []int{1, 2} {
		faultpoint.ArmN(faultpoint.ScanWorkerPanic, hits)
		if _, _, err := ScanKNN(context.Background(), coll, q, 3, 2, nil); !errors.Is(err, ErrWorkerPanic) {
			t.Fatalf("%d armed hits: got %v, want ErrWorkerPanic", hits, err)
		}
		if !settledGoroutines(base) {
			t.Fatalf("%d goroutines after the drill, %d before", runtime.NumGoroutine(), base)
		}
		got, _, err := ScanKNN(context.Background(), coll, q, 3, 2, nil)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("after the drill: %v (%v), want %v", got, err, want)
		}
	}
}
