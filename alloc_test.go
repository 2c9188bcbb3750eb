package hydra

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	_ "hydra/internal/methods"
)

// queryAllocBudget is the steady-state heap-allocation budget per exact KNN
// query on the pooled-scratch paths: one allocation for the returned matches
// plus one of slack (pool churn across GC cycles). CI runs this test as a
// dedicated gate; a regression that re-introduces per-query buffer or heap
// allocations fails it immediately.
const queryAllocBudget = 2.0

// TestQueryAllocBudget pins the steady-state allocations per query of every
// method whose full KNN path runs on pooled scratch — SFA and the VA+file
// included, whose DFT feature extraction runs in the query's scratch (a
// power-of-two series length transforms without allocating), the M-tree,
// whose (node, parent distance) visits sit unboxed in the scratch's typed
// heap, and the R*-tree and ADS-FULL, whose walks keep their frontier and
// query summaries in the scratch like every other tree's.
func TestQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation allocates, and sync.Pool
		// deliberately fakes misses under it; the budget only holds for
		// production builds. CI runs this gate in its own non-race step.
		t.Skip("allocation budget is measured without the race detector")
	}
	ds := dataset.RandomWalk(2000, 256, 42)
	queries := dataset.SynthRand(8, 256, 7).Queries
	for _, name := range []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree", "SFA", "VA+file", "M-tree", "R*-tree", "ADS-FULL"} {
		t.Run(name, func(t *testing.T) {
			m, err := core.New(name, core.Options{LeafSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			coll := core.NewCollection(ds)
			if err := m.Build(coll); err != nil {
				t.Fatal(err)
			}
			// Warm up: grow scratch buffers, materialize adaptive leaves
			// (ADS+), populate the pool.
			for _, q := range queries {
				if _, _, err := m.KNN(context.Background(), q, 1); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(100, func() {
				q := queries[i%len(queries)]
				i++
				if _, _, err := m.KNN(context.Background(), q, 1); err != nil {
					t.Fatal(err)
				}
			})
			if avg > queryAllocBudget {
				t.Errorf("%s: %.2f allocs per steady-state query, budget %.0f", name, avg, queryAllocBudget)
			}
		})
	}
}

// TestQueryAllocBudgetHelpers extends the gate to the scan's helper path.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where a scan starts no helper;
// here the collection holds several core.CancelBlock chunks and GOMAXPROCS
// is 2, so every query starts one helper goroutine, and the allocations are
// read from runtime.MemStats around a run of queries.
func TestQueryAllocBudgetHelpers(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ds := dataset.RandomWalk(4*core.CancelBlock, 64, 42)
	coll := core.NewCollection(ds)
	queries := dataset.SynthRand(8, 64, 7).Queries
	if h := core.Helpers(0, 4); h != 1 {
		t.Fatalf("a 4-chunk scan at GOMAXPROCS=2 starts %d helpers, want 1", h)
	}
	query := func(i int) {
		if _, _, err := core.ScanKNN(context.Background(), coll, queries[i%len(queries)], 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		query(i)
	}
	const runs = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		query(i)
	}
	runtime.ReadMemStats(&after)
	avg := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("%.3f allocs per query", avg)
	if avg > queryAllocBudget {
		t.Errorf("scan with a helper: %.2f allocs per steady-state query, budget %.0f", avg, queryAllocBudget)
	}
}

// TestBuildWorkBudget is the construction-side gate: counts, not seconds, so
// it holds on any host. It pins that the CPU-bound builds do each piece of
// work once — the M-tree computes one samples × entries distance matrix per
// split (820 distances per series when every promotion pair recomputed its
// 2 × entries distances), and DSTree, SFA and the VA+file run out of build
// scratch instead of allocating per insert, per tree level and per transform
// (84, 10.5 and 5 allocations per series when they did).
func TestBuildWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	ds := dataset.RandomWalk(4000, 128, 42)
	build := func(name string) core.Method {
		m, err := core.New(name, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Build(core.NewCollection(ds)); err != nil {
			t.Fatal(err)
		}
		return m
	}

	const distCeiling = 100 // 74 when recorded
	calcs := build("M-tree").(interface{ BuildDistCalcs() int64 }).BuildDistCalcs()
	if perSeries := float64(calcs) / float64(ds.Len()); perSeries > distCeiling {
		t.Errorf("M-tree: %.1f construction distances per series, ceiling %d", perSeries, distCeiling)
	}

	for _, tc := range []struct {
		name    string
		ceiling float64 // allocations per series
	}{
		{"DSTree", 3},  // 1.6 when recorded: node synopses and member lists
		{"SFA", 3},     // 1.5: trie nodes
		{"VA+file", 2}, // 1.0: vaq.Encode's code slice
	} {
		perSeries := testing.AllocsPerRun(2, func() { build(tc.name) }) / float64(ds.Len())
		if perSeries > tc.ceiling {
			t.Errorf("%s: %.2f allocations per series built, ceiling %.0f", tc.name, perSeries, tc.ceiling)
		}
	}
}

// TestQueryAllocBudgetFacade extends the allocation gate to the public API
// path: Engine.Query must add nothing on top of the method's pooled query —
// the scratch pooling survives the facade (context poll, instrumentation
// and the []float32 → series.Series conversion are all allocation-free).
func TestQueryAllocBudgetFacade(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is measured without the race detector")
	}
	ds := dataset.RandomWalk(2000, 256, 42)
	pub := &Dataset{d: ds}
	queries := dataset.SynthRand(8, 256, 7).Queries
	ctx := context.Background()
	for _, name := range []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree"} {
		t.Run(name, func(t *testing.T) {
			e, err := BuildIndex(ctx, name, WithData(pub), WithLeafSize(64))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range queries {
				if _, err := e.Query(ctx, q, 1); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			avg := testing.AllocsPerRun(100, func() {
				q := queries[i%len(queries)]
				i++
				if _, err := e.Query(ctx, q, 1); err != nil {
					t.Fatal(err)
				}
			})
			if avg > queryAllocBudget {
				t.Errorf("%s via Engine.Query: %.2f allocs per steady-state query, budget %.0f", name, avg, queryAllocBudget)
			}
		})
	}
}

// TestParallelScanStillExact guards the pooled parallel path: answers must
// stay bit-identical to the serial scan for any worker count (the scratch
// pool and mutex merge must not perturb the deterministic selection).
func TestParallelScanStillExact(t *testing.T) {
	ds := dataset.RandomWalk(1500, 128, 9)
	coll := core.NewCollection(ds)
	queries := dataset.SynthRand(6, 128, 11).Queries
	for _, q := range queries {
		// The oracle is the one-worker pooled scan: reordered early
		// abandoning accumulates in query order, so brute force (natural
		// order) differs in the last ulp — the bit-identity contract is
		// serial-scan vs parallel-scan.
		want, _, err := core.ScanKNN(context.Background(), coll, q, 3, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 7} {
			got, _, err := core.ScanKNN(context.Background(), coll, q, 3, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("workers=%d: %v want %v", workers, got, want)
			}
		}
	}
}
