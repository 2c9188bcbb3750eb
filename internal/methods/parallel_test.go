package methods

import (
	"context"
	"math"
	"sync"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/storage"
)

// TestParallelBuilds: separate method instances over separate collections
// must be safe to build and query concurrently (the bench harness and the
// experiment runner may do this; the storage counters are atomic).
func TestParallelBuilds(t *testing.T) {
	ds := dataset.RandomWalk(400, 64, 71)
	q := dataset.SynthRand(1, 64, 72).Queries[0]
	var wg sync.WaitGroup
	errs := make(chan error, len(All())*2)
	for _, name := range All() {
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				m, err := core.New(name, core.Options{LeafSize: 16})
				if err != nil {
					errs <- err
					return
				}
				coll := core.NewCollection(ds)
				if err := m.Build(coll); err != nil {
					errs <- err
					return
				}
				if _, _, err := m.KNN(context.Background(), q, 1); err != nil {
					errs <- err
				}
			}(name)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentQueriesOneCollection: one built method instance over ONE
// shared collection must answer concurrent queries race-free (run under
// -race) and return the same matches as serial execution — and the same
// per-query I/O record: every query reads through its own storage.Cursor,
// so another query's reads never land in its QueryStats.IO, and the
// collection's Counters grow by exactly the sum of the records. It covers
// ADS+'s adaptive materialization map (mutex-guarded), whose first touch is
// stateful by design, so every method is compared after one serial warm-up
// pass, and every other method must record the same I/O on both passes. It
// also pins that SFA and the VA+file keep no DFT workspace on their shared
// transform: the workers start at different queries, so a buffer on the
// transform would hold another query's spectrum (wrong answers here, a
// reported race under -race). TestParallelBuilds above only covers
// separate collections.
func TestConcurrentQueriesOneCollection(t *testing.T) {
	ds := dataset.RandomWalk(300, 64, 81)
	queries := dataset.SynthRand(6, 64, 82).Queries
	const k = 3
	type tc struct {
		label string
		name  string
		opts  core.Options
	}
	var cases []tc
	for _, name := range All() {
		cases = append(cases, tc{name, name, core.Options{LeafSize: 16}})
	}
	cases = append(cases, tc{"UCR-Suite workers=2", "UCR-Suite", core.Options{Workers: 2}})
	ctx := context.Background()
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			m, err := core.New(c.name, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			coll := core.NewCollection(ds)
			if err := m.Build(coll); err != nil {
				t.Fatal(err)
			}
			// Serial reference answers and records from the same built
			// instance (queries are read-only for every method but ADS+'s
			// first touch, so asking first is safe).
			want := make([][]core.Match, len(queries))
			wantIO := make([]storage.Snapshot, len(queries))
			for pass := 0; pass < 2; pass++ {
				for qi, q := range queries {
					res, qs, err := core.RunQuery(ctx, m, coll, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if pass == 1 && c.name != "ADS+" && qs.IO != wantIO[qi] {
						t.Errorf("query %d: I/O %v on the second serial pass, %v on the first", qi, qs.IO, wantIO[qi])
					}
					want[qi], wantIO[qi] = res, qs.IO
				}
			}
			before := coll.Counters.Snapshot()
			const workers = 4
			sums := make([]storage.Snapshot, workers)
			var wg sync.WaitGroup
			errCh := make(chan error, workers*len(queries))
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(first int) {
					defer wg.Done()
					for n := range queries {
						qi := (first + n) % len(queries)
						got, qs, err := core.RunQuery(ctx, m, coll, queries[qi], k)
						if err != nil {
							errCh <- err
							return
						}
						sums[first] = sums[first].Add(qs.IO)
						if qs.IO != wantIO[qi] {
							t.Errorf("query %d: concurrent I/O %v, serial %v", qi, qs.IO, wantIO[qi])
						}
						for i := range want[qi] {
							if got[i].ID != want[qi][i].ID || got[i].Dist != want[qi][i].Dist {
								t.Errorf("query %d match %d: (%d, %v), want (%d, %v)",
									qi, i, got[i].ID, got[i].Dist, want[qi][i].ID, want[qi][i].Dist)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			var sum storage.Snapshot
			for _, s := range sums {
				sum = sum.Add(s)
			}
			if grown := coll.Counters.Snapshot().Sub(before); grown != sum {
				t.Errorf("counters grew by %v, the queries recorded %v", grown, sum)
			}
		})
	}
}

// TestParallelScanMatchesAllOracles: the parallel scan must agree with every
// registered method's exact answer — bit-identically with the serial
// UCR-Suite scan (same kernel, same tie-breaks), and up to float
// reassociation noise with the other methods.
func TestParallelScanMatchesAllOracles(t *testing.T) {
	ds := dataset.RandomWalk(250, 64, 91)
	queries := dataset.SynthRand(4, 64, 92).Queries
	built := buildAll(t, ds, core.Options{LeafSize: 16})
	for _, k := range []int{1, 10, 100} {
		for qi, q := range queries {
			par, _, err := core.ScanKNN(context.Background(), core.NewCollection(ds), q, k, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, bm := range built {
				want, _, err := bm.m.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(par) != len(want) {
					t.Fatalf("k=%d q=%d vs %s: %d matches, want %d", k, qi, name, len(par), len(want))
				}
				for i := range want {
					exact := name == "UCR-Suite"
					if exact && (par[i].ID != want[i].ID || par[i].Dist != want[i].Dist) {
						t.Errorf("k=%d q=%d match %d: parallel (%d, %v) not bit-identical to serial scan (%d, %v)",
							k, qi, i, par[i].ID, par[i].Dist, want[i].ID, want[i].Dist)
					}
					if !exact && math.Abs(par[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
						t.Errorf("k=%d q=%d match %d vs %s: dist %v, want %v",
							k, qi, i, name, par[i].Dist, want[i].Dist)
					}
				}
			}
		}
	}
}

// TestUCRParallelModeBitIdentical: the registered UCR-Suite method with
// Options.Workers set must return the serial method's exact answers.
func TestUCRParallelModeBitIdentical(t *testing.T) {
	ds := dataset.RandomWalk(200, 64, 95)
	queries := dataset.SynthRand(4, 64, 96).Queries
	serial, err := core.New("UCR-Suite", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Build(core.NewCollection(ds)); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 2, 5} {
		par, err := core.New("UCR-Suite", core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := par.Build(core.NewCollection(ds)); err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			for _, k := range []int{1, 10} {
				want, _, err := serial.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, qs, err := par.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("w=%d q=%d k=%d: %d matches, want %d", workers, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("w=%d q=%d k=%d match %d: %+v, want %+v", workers, qi, k, i, got[i], want[i])
					}
				}
				if qs.PruningRatio() != 0 {
					t.Errorf("w=%d: parallel scan must examine all series, pruning=%f", workers, qs.PruningRatio())
				}
			}
		}
	}
}

// TestSharedCountersUnderConcurrency: one collection's counters charged from
// many goroutines must not lose updates (atomic counters).
func TestSharedCountersUnderConcurrency(t *testing.T) {
	ds := dataset.RandomWalk(100, 32, 73)
	coll := core.NewCollection(ds)
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				coll.Counters.ChargeSeq(10)
				coll.Counters.ChargeRand(1)
			}
		}()
	}
	wg.Wait()
	snap := coll.Counters.Snapshot()
	if snap.SeqOps != workers*perWorker || snap.RandOps != workers*perWorker {
		t.Errorf("lost counter updates: %+v", snap)
	}
	if snap.SeqBytes != workers*perWorker*10 || snap.RandBytes != workers*perWorker {
		t.Errorf("lost byte counts: %+v", snap)
	}
}
