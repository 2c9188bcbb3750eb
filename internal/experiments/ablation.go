package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/index/dstree"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/transform/dft"
	"hydra/internal/transform/vaq"
)

// Ablation isolates the design choices the paper's discussion (§5)
// attributes the winners' performance to:
//
//  1. the UCR-suite scan optimizations (early abandoning, reordering);
//  2. SFA's binning scheme (equi-depth vs equi-width — the paper tuned to
//     equi-depth);
//  3. VA+'s non-uniform, energy-weighted bit allocation vs the VA-file's
//     uniform grid (the paper: VA+ has the tighter bound "thanks to its
//     non-uniform discretization scheme");
//  4. DSTree's dynamic vertical splitting vs horizontal-only splits (the
//     paper: "data-adaptive partitioning ... leads to better data
//     clustering").
func Ablation(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "ablation",
		Title:  "Ablation of design choices (paper §5)",
		Header: []string{"Study", "Variant", "Metric", "Value"},
	}
	ds := dataset.RandomWalk(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed)
	wl := cfg.synthRand(ds, cfg.Seed+100)

	if err := ablationUCR(r, ds, wl); err != nil {
		return nil, err
	}
	if err := ablationSFA(r, cfg, ds, wl); err != nil {
		return nil, err
	}
	if err := ablationVAQ(r, ds, wl); err != nil {
		return nil, err
	}
	if err := ablationDSTree(r, ds, wl); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"expected: reordered early abandoning visits far fewer points; equi-depth ≥ equi-width pruning; "+
			"non-uniform bits ≥ uniform pruning; h+v splits ≫ h-only pruning")
	return r, nil
}

// ablationUCR measures the points visited per distance computation for the
// scan variants: full distance, early abandoning, the paper's
// element-granular reordered early abandoning, and the block-granular
// reordering the engine's kernel runs.
func ablationUCR(r *Report, ds *dataset.Dataset, wl *dataset.Workload) error {
	n := ds.SeriesLen()
	variants := []struct {
		name string
		scan func(q series.Series) (visited int64, elapsed time.Duration)
	}{
		{"full-distance", func(q series.Series) (int64, time.Duration) {
			start := time.Now()
			var visited int64
			best := 1e308
			for _, c := range ds.Series {
				d := series.SquaredDist(q, c)
				visited += int64(n)
				if d < best {
					best = d
				}
			}
			return visited, time.Since(start)
		}},
		{"early-abandon", func(q series.Series) (int64, time.Duration) {
			start := time.Now()
			var visited int64
			best := 1e308
			for _, c := range ds.Series {
				var sum float64
				for i := range q {
					d := float64(q[i]) - float64(c[i])
					sum += d * d
					visited++
					if sum > best {
						break
					}
				}
				if sum < best {
					best = sum
				}
			}
			return visited, time.Since(start)
		}},
		{"reordered-early-abandon", func(q series.Series) (int64, time.Duration) {
			// The paper's optimization (c) as the UCR suite states it:
			// single elements by decreasing |q|, tested after each one.
			start := time.Now()
			ord := make([]int, n)
			for i := range ord {
				ord[i] = i
			}
			sort.SliceStable(ord, func(a, b int) bool {
				return math.Abs(float64(q[ord[a]])) > math.Abs(float64(q[ord[b]]))
			})
			var visited int64
			best := 1e308
			for _, c := range ds.Series {
				var sum float64
				for _, i := range ord {
					d := float64(q[i]) - float64(c[i])
					sum += d * d
					visited++
					if sum > best {
						break
					}
				}
				if sum < best {
					best = sum
				}
			}
			return visited, time.Since(start)
		}},
		{"block-reordered(shipped-kernel)", func(q series.Series) (int64, time.Duration) {
			// What the engine runs: whole 16-element blocks by decreasing
			// block energy, tested once per block. The kernel reports no
			// count, so the points are those up to the first block boundary
			// at which the scalar sum in the same order exceeds the bound.
			start := time.Now()
			ord := series.NewOrder(q)
			best := 1e308
			for _, c := range ds.Series {
				if d := series.SquaredDistEAOrderedBlocked(q, c, ord, best); d < best {
					best = d
				}
			}
			elapsed := time.Since(start)
			var visited int64
			best = 1e308
			whole := n - n%simd.BlockLen
			for _, c := range ds.Series {
				var sum float64
				for k := 0; k < n; k++ {
					i := ord.At(k)
					d := float64(q[i]) - float64(c[i])
					sum += d * d
					visited++
					if (k+1)%simd.BlockLen == 0 && k < whole && sum > best {
						break
					}
				}
				if sum < best {
					best = sum
				}
			}
			return visited, elapsed
		}},
	}
	for _, v := range variants {
		var visited int64
		var elapsed time.Duration
		for _, q := range wl.Queries {
			vis, el := v.scan(q)
			visited += vis
			elapsed += el
		}
		perQuery := float64(visited) / float64(len(wl.Queries))
		frac := perQuery / float64(ds.Len()*n)
		r.Rows = append(r.Rows,
			[]string{"ucr-optimizations", v.name, "points-visited-fraction", fmt.Sprintf("%.4f", frac)},
			[]string{"ucr-optimizations", v.name, "cpu-per-query(ms)", fmt.Sprintf("%.3f", elapsed.Seconds()*1e3/float64(len(wl.Queries)))},
		)
	}
	return nil
}

// ablationSFA compares MCB binning schemes by pruning ratio.
func ablationSFA(r *Report, cfg Config, ds *dataset.Dataset, wl *dataset.Workload) error {
	for _, variant := range []struct {
		name      string
		equiWidth bool
	}{{"equi-depth", false}, {"equi-width", true}} {
		run, err := runMethod("SFA", ds, wl, core.Options{
			LeafSize:     leafFor(ds.Len()),
			SFAEquiWidth: variant.equiWidth,
		}, cfg.K, cfg.IndexDir)
		if err != nil {
			return err
		}
		r.Rows = append(r.Rows,
			[]string{"sfa-binning", variant.name, "mean-pruning", fmt.Sprintf("%.4f", run.Workload.MeanPruningRatio())})
	}
	return nil
}

// ablationVAQ compares energy-weighted vs uniform bit allocation at an equal
// bit budget, by pruning ratio and raw candidates visited.
func ablationVAQ(r *Report, ds *dataset.Dataset, wl *dataset.Workload) error {
	const dims = 16
	xform := dft.New(ds.SeriesLen(), dims)
	feats := make([][]float64, ds.Len())
	for i, s := range ds.Series {
		feats[i] = xform.Apply(s)
	}
	budget := dims * 4 // a tight budget makes the allocation policy matter
	for _, variant := range []struct {
		name  string
		train func([][]float64, int) (*vaq.Quantizer, error)
	}{
		{"non-uniform(VA+)", vaq.Train},
		{"uniform(VA-file)", vaq.TrainUniform},
	} {
		q, err := variant.train(feats, budget)
		if err != nil {
			return err
		}
		codes := make([][]uint8, len(feats))
		for i, f := range feats {
			codes[i] = q.Encode(f)
		}
		var visited int64
		var tightSum float64
		var tightN int64
		for _, query := range wl.Queries {
			qf := xform.Apply(query)
			// Exact NN distance for the pruning bound.
			best := 1e308
			for _, c := range ds.Series {
				if d := series.SquaredDist(query, c); d < best {
					best = d
				}
			}
			for i := range codes {
				lb := q.LowerBound(qf, codes[i])
				if lb < best {
					visited++
				}
				if d := series.SquaredDist(query, ds.Series[i]); d > 0 {
					tightSum += math.Sqrt(lb) / math.Sqrt(d)
					tightN++
				}
			}
		}
		frac := float64(visited) / float64(len(wl.Queries)) / float64(ds.Len())
		r.Rows = append(r.Rows,
			[]string{"vaq-bit-allocation", variant.name, "mean-pruning", fmt.Sprintf("%.4f", 1-frac)},
			[]string{"vaq-bit-allocation", variant.name, "mean-lb-tightness", fmt.Sprintf("%.4f", tightSum/float64(tightN))})
	}
	return nil
}

// ablationDSTree compares the full h+v split policy against horizontal-only.
func ablationDSTree(r *Report, ds *dataset.Dataset, wl *dataset.Workload) error {
	for _, variant := range []struct {
		name string
		mk   func(core.Options) *dstree.Index
	}{
		{"h+v-splits", dstree.New},
		{"h-only", dstree.NewHorizontalOnly},
	} {
		ix := variant.mk(core.Options{LeafSize: leafFor(ds.Len())})
		coll := core.NewCollection(ds)
		if err := ix.Build(coll); err != nil {
			return err
		}
		ws, err := core.RunWorkload(context.Background(), ix, coll, wl, 1)
		if err != nil {
			return err
		}
		r.Rows = append(r.Rows,
			[]string{"dstree-splits", variant.name, "mean-pruning", fmt.Sprintf("%.4f", ws.MeanPruningRatio())})
	}
	return nil
}
