// Package hydra's root benchmark harness: one testing.B benchmark per table
// and figure of the paper (regenerating the artifact at a reduced scale and
// reporting its headline numbers as custom metrics), plus per-method build
// and query micro-benchmarks.
//
// Full-size regeneration is the job of cmd/hydra-bench; these benches keep
// every artifact runnable through the standard Go toolchain:
//
//	go test -bench=Fig6 -benchmem
//
// The harness lives in the external test package: it imports
// internal/experiments, which itself imports hydra (the ingest
// experiment drives Engine.Append), so an in-package test file would
// close an import cycle.
package hydra_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/experiments"
	_ "hydra/internal/methods"
	"hydra/internal/scan/ucr"
	"hydra/internal/series"
	"hydra/internal/storage"
)

// benchConfig is the reduced scale used by the bench harness.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig(dataset.ScaleQuick)
	cfg.NumQueries = 10
	cfg.SeriesLen = 128
	return cfg
}

func reportRows(b *testing.B, rep *experiments.Report) {
	b.Helper()
	b.ReportMetric(float64(len(rep.Rows)), "rows")
}

// BenchmarkTable1_Registry regenerates the method-properties matrix.
func BenchmarkTable1_Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := experiments.Table1()
		if len(rep.Rows) != 10 {
			b.Fatalf("expected 10 methods, got %d", len(rep.Rows))
		}
	}
}

// BenchmarkFig2_LeafSize regenerates the leaf-size parametrization sweep.
func BenchmarkFig2_LeafSize(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig2LeafSize(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig3_Scalability regenerates the all-methods scalability figure.
func BenchmarkFig3_Scalability(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig3Scalability(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig4_DiskAccesses regenerates the disk-access counts.
func BenchmarkFig4_DiskAccesses(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig4DiskAccesses(cfg, []float64{25, 100}, []int{128, 512})
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig5_Lengths regenerates the series-length scalability figure.
func BenchmarkFig5_Lengths(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig5Lengths(cfg, []int{128, 512, 2048})
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig6_HDD regenerates the HDD scalability comparison.
func BenchmarkFig6_HDD(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig6HDD(cfg, []float64{25, 100, 250})
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig7_SSD regenerates the SSD scalability comparison.
func BenchmarkFig7_SSD(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig7SSD(cfg, []float64{25, 100, 250})
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig8_Footprint regenerates the footprint + TLB figure.
func BenchmarkFig8_Footprint(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig8Footprint(cfg, []float64{25, 100}, []int{128})
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig9_Pruning regenerates the pruning-ratio figure.
func BenchmarkFig9_Pruning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig9Pruning(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkFig10_Matrix regenerates the recommendation matrix.
func BenchmarkFig10_Matrix(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Fig10Matrix(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkTable2_Controlled regenerates the controlled-workloads summary.
func BenchmarkTable2_Controlled(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Table2Controlled(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkAblation regenerates the design-choice ablation study (paper §5
// discussion: scan optimizations, SFA binning, VA+ bit allocation, DSTree
// split policy).
func BenchmarkAblation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Ablation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkMethods_Build measures raw index construction per method (CPU
// only; simulated I/O is counted, not performed) at two shapes: the small
// one the other per-method benchmarks share, whose large leaves split a
// quarter as often per series, and the benchmark's tree-exact shape —
// 10 000 × 256 with default options — where split cost dominates.
func BenchmarkMethods_Build(b *testing.B) {
	for _, shape := range []struct {
		n, length int
		opts      core.Options
	}{
		{4000, 128, core.Options{LeafSize: 64}},
		{10000, 256, core.Options{}},
	} {
		ds := dataset.RandomWalk(shape.n, shape.length, 42)
		for _, name := range core.Names() {
			name := name
			b.Run(fmt.Sprintf("%dx%d/%s", shape.n, shape.length, name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m, err := core.New(name, shape.opts)
					if err != nil {
						b.Fatal(err)
					}
					if err := m.Build(core.NewCollection(ds)); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(shape.n)*float64(b.N)/b.Elapsed().Seconds(), "series/s")
			})
		}
	}
}

// BenchmarkMethods_Query measures exact 1-NN query answering per method over
// a pre-built index.
func BenchmarkMethods_Query(b *testing.B) {
	ds := dataset.RandomWalk(4000, 128, 42)
	queries := dataset.SynthRand(64, 128, 7).Queries
	for _, name := range core.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			m, err := core.New(name, core.Options{LeafSize: 64})
			if err != nil {
				b.Fatal(err)
			}
			coll := core.NewCollection(ds)
			if err := m.Build(coll); err != nil {
				b.Fatal(err)
			}
			var seeks int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				before := coll.Counters.Snapshot()
				_, _, err := m.KNN(context.Background(), queries[i%len(queries)], 1)
				if err != nil {
					b.Fatal(err)
				}
				seeks += coll.Counters.Snapshot().Sub(before).RandOps
			}
			b.ReportMetric(float64(seeks)/float64(b.N), "seeks/query")
		})
	}
}

// BenchmarkBufferTuning regenerates the construction buffer-size sweep
// (paper §4.3.1).
func BenchmarkBufferTuning(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rep, err := experiments.BufferTuning(cfg)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rep)
	}
}

// BenchmarkDeviceModels exercises the simulated-time conversion (sanity: it
// must be trivially cheap) across both device profiles.
func BenchmarkDeviceModels(b *testing.B) {
	snap := storage.Snapshot{SeqOps: 100, SeqBytes: 1 << 30, RandOps: 1 << 14, RandBytes: 1 << 24}
	for _, dev := range []storage.DeviceProfile{storage.HDD, storage.SSD} {
		b.Run(dev.Name, func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total += snap.IOTime(dev).Seconds()
			}
			_ = total
		})
	}
}

// BenchmarkKernels compares the scalar early-abandoning distance kernels
// against the blocked multi-accumulator variants, with a wide-open bound
// (full computation, the kernels' throughput) and with a tight bound (the
// abandon-dominated regime of a well-pruned scan). The blocked kernels
// dispatch through internal/simd: run once normally and once with
// HYDRA_SIMD=off to compare the AVX2 and pure-Go backends (the per-kernel
// backend benchmarks live in internal/simd's own suite).
func BenchmarkKernels(b *testing.B) {
	const n = 256
	q := dataset.RandomWalk(1, n, 1).Series[0]
	c := dataset.RandomWalk(1, n, 2).Series[0]
	ord := series.NewOrder(q)
	full := series.SquaredDist(q, c)
	kernels := []struct {
		name string
		f    func(bound float64) float64
	}{
		{"scalar", func(bound float64) float64 { return series.SquaredDistEA(q, c, bound) }},
		{"blocked", func(bound float64) float64 { return series.SquaredDistEABlocked(q, c, bound) }},
		{"scalar-ordered", func(bound float64) float64 { return series.SquaredDistEAOrdered(q, c, ord, bound) }},
		{"blocked-ordered", func(bound float64) float64 { return series.SquaredDistEAOrderedBlocked(q, c, ord, bound) }},
	}
	for _, regime := range []struct {
		name  string
		bound float64
	}{{"full", math.Inf(1)}, {"abandon", full / 8}} {
		for _, k := range kernels {
			b.Run(regime.name+"/"+k.name, func(b *testing.B) {
				var sum float64
				for i := 0; i < b.N; i++ {
					sum += k.f(regime.bound)
				}
				_ = sum
			})
		}
	}
}

// BenchmarkParallelScan measures the parallel UCR-suite scan against the
// serial one on the ScaleQuick dataset (the acceptance target is >= 2x at
// GOMAXPROCS >= 4). Both modes return bit-identical answers; only wall
// clock differs.
func BenchmarkParallelScan(b *testing.B) {
	n := dataset.NumSeriesForGB(100, 256, dataset.ScaleQuick)
	ds := dataset.RandomWalk(n, 256, 42)
	queries := dataset.SynthRand(16, 256, 7).Queries
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			s := ucr.New(core.Options{Workers: w})
			if err := s.Build(core.NewCollection(ds)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.KNN(context.Background(), queries[i%len(queries)], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScanConcurrentStreams is the busy side of the scan's claim
// loop: every P runs its own stream of queries against one 24,000 × 256
// collection on the default options, so each query's helper finds the
// other cores taken. Run it at GOMAXPROCS=2 for two streams; ops/s counts
// queries answered by all streams together.
func BenchmarkScanConcurrentStreams(b *testing.B) {
	const n, l = 24000, 256
	ds := dataset.RandomWalk(n, l, 1)
	queries := append(dataset.SynthRand(32, l, 2).Queries, dataset.Ctrl(ds, 32, 1.0, 3).Queries...)
	s := ucr.New(core.Options{})
	if err := s.Build(core.NewCollection(ds)); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q := queries[int(next.Add(1))%len(queries)]
			if _, _, err := s.KNN(context.Background(), q, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkArenaVsSliced compares a full leaf-style scan over the flat
// arena layout (storage.SeriesFile) against the legacy slice-of-slices
// layout. To make the sliced baseline honest about what a long-lived heap
// looks like, its series are independent allocations created in shuffled
// order (interleaved allocation is what the old layout degraded to once
// index build, buffers and GC had churned the heap); the arena scan streams
// one contiguous 64-byte-aligned block. Both scans compute identical sums.
func BenchmarkArenaVsSliced(b *testing.B) {
	const n, l = 8192, 256
	ds := dataset.RandomWalk(n, l, 42)
	coll := core.NewCollection(ds) // aliases the generator's arena
	q := dataset.SynthRand(1, l, 7).Queries[0]

	sliced := make([]series.Series, n)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		sliced[i] = ds.Series[i].Clone()
	}

	bound := math.Inf(1) // full computation: the memory-bound regime
	b.Run("arena", func(b *testing.B) {
		b.SetBytes(int64(n) * int64(l) * storage.BytesPerValue)
		var sum float64
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				sum += series.SquaredDistEABlocked(q, coll.File.Peek(j), bound)
			}
		}
		_ = sum
	})
	b.Run("sliced", func(b *testing.B) {
		b.SetBytes(int64(n) * int64(l) * storage.BytesPerValue)
		var sum float64
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				sum += series.SquaredDistEABlocked(q, sliced[j], bound)
			}
		}
		_ = sum
	})
}

// BenchmarkQueryAllocs tracks steady-state heap allocations per exact 1-NN
// query over a pre-built index (-benchmem columns). The pooled-scratch
// methods sit at 1 alloc/query (the returned matches); TestQueryAllocBudget
// gates them in CI.
func BenchmarkQueryAllocs(b *testing.B) {
	ds := dataset.RandomWalk(4000, 256, 42)
	queries := dataset.SynthRand(16, 256, 7).Queries
	for _, name := range []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree", "SFA", "VA+file"} {
		name := name
		b.Run(name, func(b *testing.B) {
			m, err := core.New(name, core.Options{LeafSize: 64})
			if err != nil {
				b.Fatal(err)
			}
			coll := core.NewCollection(ds)
			if err := m.Build(coll); err != nil {
				b.Fatal(err)
			}
			for _, q := range queries { // warm scratch pools
				if _, _, err := m.KNN(context.Background(), q, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.KNN(context.Background(), queries[i%len(queries)], 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKNNHeap measures the shared k-NN result set.
func BenchmarkKNNHeap(b *testing.B) {
	for _, k := range []int{1, 10, 100} {
		b.Run("k="+strconv.Itoa(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				set := core.NewKNNSet(k)
				for j := 0; j < 10000; j++ {
					set.Add(j, float64((j*2654435761)%100000))
				}
				if len(set.Results()) != k {
					b.Fatal("bad result size")
				}
			}
		})
	}
}
