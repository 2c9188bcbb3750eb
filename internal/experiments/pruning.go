package experiments

import (
	"fmt"
	"time"

	"hydra/internal/dataset"
	"hydra/internal/methods"
	"hydra/internal/storage"
)

// pruningMethods are the five indexes of Figure 9.
var pruningMethods = []string{"ADS+", "iSAX2+", "DSTree", "SFA", "VA+file"}

// Fig9Pruning reproduces Figure 9: per-method pruning ratio over the
// Synth-Rand, Synth-Ctrl and the four (simulated) real controlled workloads
// plus Deep-Orig, all on 100GB-eq collections.
//
// The iSAX2+, SFA and DSTree ratios include member-level pruning: inside a
// leaf the traversal reads, a raw series is examined only if its own summary
// (full-cardinality SAX word, DFT features, block moments — core.Synopses)
// does not rule it out (core.Refiner) — the second-level step of
// ParIS+/MESSI and Hercules, not the 2018 paper's whole-leaf scan, whose
// ratio counted every member of a read leaf. All three therefore sit nearer
// ADS+ and the VA+file, which always filtered per series, than they do in
// the paper's figure. The same holds for the M-tree's ratio wherever it is
// printed (it is not one of this figure's five): its data entries pass the
// block-moment test before their raw series is read. What the split and
// routing policies themselves prune shows in the leaves read, i.e. in the
// I/O columns, which the member-level step leaves unchanged.
func Fig9Pruning(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig9",
		Title:  "Pruning ratio per method and workload (Figure 9)",
		Header: []string{"Workload", "Method", "MeanPruning", "MinPruning", "MaxPruning"},
	}

	type wlCase struct {
		label string
		ds    *dataset.Dataset
		wl    *dataset.Workload
	}
	synth := dataset.RandomWalk(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed)
	synth.Name = "synthetic"
	seismic := dataset.Seismic(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed+1)
	astro := dataset.Astro(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed+2)
	sald := dataset.SALD(cfg.numSeries(100, 128), 128, cfg.Seed+3)
	deep := dataset.Deep1B(cfg.numSeries(100, 96), 96, cfg.Seed+4)

	const ctrlNoise = 1.0
	cases := []wlCase{
		{"Synth-Rand", synth, cfg.synthRand(synth, cfg.Seed+100)},
		{"Synth-Ctrl", synth, dataset.Ctrl(synth, cfg.NumQueries, ctrlNoise, cfg.Seed+101)},
		{"SALD-Ctrl", sald, dataset.Ctrl(sald, cfg.NumQueries, ctrlNoise, cfg.Seed+102)},
		{"Seismic-Ctrl", seismic, dataset.Ctrl(seismic, cfg.NumQueries, ctrlNoise, cfg.Seed+103)},
		{"Astro-Ctrl", astro, dataset.Ctrl(astro, cfg.NumQueries, ctrlNoise, cfg.Seed+104)},
		{"Deep-Orig", deep, dataset.DeepOrig(cfg.NumQueries, 96, cfg.Seed+105)},
		{"Deep-Ctrl", deep, dataset.Ctrl(deep, cfg.NumQueries, ctrlNoise, cfg.Seed+106)},
	}
	for _, c := range cases {
		opts := cfg.options(leafFor(c.ds.Len()))
		for _, name := range pruningMethods {
			run, err := runMethod(name, c.ds, c.wl, opts, cfg.K, cfg.IndexDir)
			if err != nil {
				return nil, err
			}
			min, max := 1.0, 0.0
			for _, q := range run.Workload.Queries {
				p := q.PruningRatio()
				if p < min {
					min = p
				}
				if p > max {
					max = p
				}
			}
			r.Rows = append(r.Rows, []string{
				c.label, name,
				fmt.Sprintf("%.4f", run.Workload.MeanPruningRatio()),
				fmt.Sprintf("%.4f", min), fmt.Sprintf("%.4f", max),
			})
		}
	}
	r.Notes = append(r.Notes,
		"paper shape: Synth-Rand prunes best; controlled workloads are more varied with harder queries; "+
			"ADS+/VA+file prune most; Deep workloads prune worst")
	return r, nil
}

// Table2Controlled reproduces Table 2: the best method per scenario (Idx,
// Exact100, Idx+Exact100, Idx+Exact10K, Easy-20, Hard-20) for each dataset,
// on both device profiles.
func Table2Controlled(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "table2",
		Title:  "Controlled workloads summary — best method per scenario (Table 2)",
		Header: []string{"Device", "Dataset", "Idx", "Exact100", "Idx+Exact100", "Idx+Exact10K", "Easy-20", "Hard-20"},
	}

	type dsCase struct {
		label string
		ds    *dataset.Dataset
		wl    *dataset.Workload
	}
	smallSynth := dataset.RandomWalk(cfg.numSeries(25, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed)
	largeSynth := dataset.RandomWalk(cfg.numSeries(250, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed)
	seismic := dataset.Seismic(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed+1)
	astro := dataset.Astro(cfg.numSeries(100, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed+2)
	sald := dataset.SALD(cfg.numSeries(100, 128), 128, cfg.Seed+3)
	deep := dataset.Deep1B(cfg.numSeries(100, 96), 96, cfg.Seed+4)

	cases := []dsCase{
		{"Small", smallSynth, cfg.synthRand(smallSynth, cfg.Seed+100)},
		{"Large", largeSynth, cfg.synthRand(largeSynth, cfg.Seed+100)},
		{"Astro", astro, dataset.Ctrl(astro, cfg.NumQueries, 1.0, cfg.Seed+104)},
		{"Deep1B", deep, dataset.Ctrl(deep, cfg.NumQueries, 1.0, cfg.Seed+106)},
		{"SALD", sald, dataset.Ctrl(sald, cfg.NumQueries, 1.0, cfg.Seed+102)},
		{"Seismic", seismic, dataset.Ctrl(seismic, cfg.NumQueries, 1.0, cfg.Seed+103)},
	}

	for _, c := range cases {
		opts := cfg.options(leafFor(c.ds.Len()))
		runs, err := runAll(methods.BestSix(), c.ds, c.wl, opts, cfg.K, cfg.IndexDir)
		if err != nil {
			return nil, err
		}
		// The Idx scenario compares index construction; the buildless scan is
		// excluded from that winner.
		indexRuns := make([]*MethodRun, 0, len(runs))
		for _, run := range runs {
			if run.Name != "UCR-Suite" && run.Name != "MASS" {
				indexRuns = append(indexRuns, run)
			}
		}
		for _, dev := range []storage.DeviceProfile{storage.HDD, storage.SSD} {
			easy, hard := easyHardSplit(runs, dev, 0.2)
			bestBy := func(m map[string]time.Duration) string {
				best, bestV := "", time.Duration(1<<63-1)
				for n, v := range m {
					if v < bestV || (v == bestV && n < best) {
						best, bestV = n, v
					}
				}
				return best
			}
			r.Rows = append(r.Rows, []string{
				dev.Name, c.label,
				winner(indexRuns, func(m *MethodRun) time.Duration { return m.IdxTime(dev) }),
				winner(runs, func(m *MethodRun) time.Duration { return m.QueryTime(dev) }),
				winner(runs, func(m *MethodRun) time.Duration { return m.IdxTime(dev) + m.QueryTime(dev) }),
				winner(runs, func(m *MethodRun) time.Duration { return m.Idx10KTime(dev) }),
				bestBy(easy), bestBy(hard),
			})
		}
	}
	r.Notes = append(r.Notes,
		"paper shape (HDD): ADS+ wins Idx; DSTree dominates easy queries and SALD/Seismic; "+
			"UCR-Suite wins hard/low-pruning workloads; SSD shifts wins toward VA+file/iSAX2+")
	return r, nil
}

// Fig10Matrix reproduces Figure 10: the recommendation decision matrix for
// indexing + 10K queries on HDD, across the dataset-size × series-length
// plane.
func Fig10Matrix(cfg Config) (*Report, error) {
	r := &Report{
		ID:     "fig10",
		Title:  "Recommendations: best method for Idx+10K queries on HDD (Figure 10)",
		Header: []string{"DatasetSize", "SeriesLength", "Recommended"},
	}
	type cell struct {
		sizeLabel string
		gb        float64
		lenLabel  string
		length    int
	}
	cells := []cell{
		{"in-memory", 25, "short", 256},
		{"in-memory", 25, "long", 2048},
		{"disk-resident", 250, "short", 256},
		{"disk-resident", 250, "long", 2048},
	}
	for _, c := range cells {
		ds := dataset.RandomWalk(cfg.numSeries(c.gb, c.length), c.length, cfg.Seed)
		wl := cfg.synthRand(ds, cfg.Seed+100)
		opts := cfg.options(leafFor(ds.Len()))
		runs, err := runAll(pruningMethods, ds, wl, opts, cfg.K, cfg.IndexDir)
		if err != nil {
			return nil, err
		}
		best := winner(runs, func(m *MethodRun) time.Duration { return m.Idx10KTime(storage.HDD) })
		r.Rows = append(r.Rows, []string{c.sizeLabel + fmt.Sprintf(" (%.0fGB-eq)", c.gb), c.lenLabel + fmt.Sprintf(" (%d)", c.length), best})
	}
	r.Notes = append(r.Notes,
		"paper recommendation: iSAX2+/DSTree in-memory short; VA+file or DSTree elsewhere, "+
			"depending on size and length")
	return r, nil
}
