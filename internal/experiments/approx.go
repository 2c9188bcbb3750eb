package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/methods"
)

// approxDefaultEpsilon / approxDefaultDelta are the δ-ε parameters of the
// approx experiment when the config leaves them unset: ε = 1 (answers within
// 2x of the true distance — in practice far closer, see the recall column)
// at 95% confidence, the sequel paper's headline operating point.
const (
	approxDefaultEpsilon = 1.0
	approxDefaultDelta   = 0.95
)

// approxModeRun is one (method, mode) cell of the accuracy-vs-latency
// comparison: answer quality against the exact oracle plus the traversal
// work and time the mode cost.
type approxModeRun struct {
	mode      string
	recall    float64 // mean recall@k against the exact answer
	mapScore  float64 // mean average precision against the exact answer
	guarantee float64 // fraction of queries with d_k <= (1+ε)·d_k*
	nodes     float64 // mean NodesVisited
	total     time.Duration
}

// ApproxQuality reproduces the sequel paper's accuracy-vs-latency
// comparison ("Return of the Lernaean Hydra" §Approximate Search) on the
// controlled workload: every approximate-capable method answers the same
// queries exactly, ng-approximately, and δ-ε-approximately, and the report
// shows what each guarantee level buys — recall@k and MAP against the exact
// oracle, the fraction of queries meeting the (1+ε) distance guarantee, the
// mean index nodes visited (with the ratio saved vs exact), and total query
// time (with speedup). The ng row's time doubles as time-to-first-answer:
// it is exactly the head-start descent QueryStream runs before an exact
// query.
//
// The Report additionally carries machine-readable Quality metrics
// ("recall/<method>/<mode>", "map/...", "nodes_ratio/...", plus the
// "<mode>/recall/min" and "<mode>/nodes_ratio/gmean" aggregates) that
// hydra-bench records in BENCH json and gates with -gate-recall.
func ApproxQuality(cfg Config) (*Report, error) {
	eps := cfg.Epsilon
	if eps <= 0 {
		eps = approxDefaultEpsilon
	}
	delta := cfg.Delta
	if delta <= 0 {
		delta = approxDefaultDelta
	}
	ds := dataset.RandomWalk(cfg.numSeries(25, cfg.SeriesLen), cfg.SeriesLen, cfg.Seed)
	wl := dataset.Ctrl(ds, cfg.NumQueries, 1.0, cfg.Seed+100)
	opts := cfg.options(leafFor(ds.Len()))

	r := &Report{
		ID:    "approx",
		Title: "Approximate query modes — accuracy vs latency (controlled workload)",
		Header: []string{"Method", "Mode", "Recall@k", "MAP", "Guarantee",
			"AvgNodes", "NodesSaved", "Time(s)", "Speedup"},
		Quality: map[string]float64{},
		Notes: []string{
			fmt.Sprintf("delta-eps at ε=%g δ=%g; guarantee column = fraction of queries with d_k ≤ (1+ε)·d_k*", eps, delta),
			"ng time is time-to-first-answer: the head-start descent QueryStream runs before an exact query",
		},
	}

	specs := []struct {
		mode string
		spec core.ApproxSpec
	}{
		{"exact", core.ApproxSpec{}},
		{"ng", core.ApproxSpec{Mode: core.ModeNG}},
		{"delta-eps", core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: eps, Delta: delta, Seed: cfg.Seed}},
	}
	wanted := func(mode string) bool {
		if len(cfg.Modes) == 0 {
			return true
		}
		for _, m := range cfg.Modes {
			if m == mode {
				return true
			}
		}
		return false
	}

	minRecall := map[string]float64{}
	logRatio := map[string]float64{} // per-mode sum of ln(nodes ratio)
	ratioN := map[string]int{}
	for _, name := range methods.ApproxCapable() {
		m, err := core.New(name, opts)
		if err != nil {
			return nil, err
		}
		coll := core.NewCollection(ds)
		m, _, err = core.CachedBuild(context.Background(), m, coll, core.SnapshotCachePath(cfg.IndexDir, name, coll, opts))
		if err != nil {
			return nil, fmt.Errorf("%s build: %w", name, err)
		}

		var exact [][]core.Match
		var exactRun approxModeRun
		for _, sp := range specs {
			if sp.mode != "exact" && !wanted(sp.mode) {
				continue // unrequested modes are not even run
			}
			run, answers, err := runApproxMode(m, coll, wl, cfg, sp.mode, sp.spec)
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", name, sp.mode, err)
			}
			if sp.mode == "exact" {
				exact, exactRun = answers, *run
			}
			if !wanted(sp.mode) {
				continue // the exact oracle still ran; it just isn't a row
			}
			scoreApproxRun(run, answers, exact, eps)

			nodesSaved, speedup := 1.0, 1.0
			if run.nodes > 0 {
				nodesSaved = exactRun.nodes / run.nodes
			}
			if run.total > 0 {
				speedup = float64(exactRun.total) / float64(run.total)
			}
			r.Rows = append(r.Rows, []string{
				name, sp.mode,
				fmt.Sprintf("%.4f", run.recall), fmt.Sprintf("%.4f", run.mapScore),
				fmt.Sprintf("%.4f", run.guarantee), fmt.Sprintf("%.1f", run.nodes),
				fmt.Sprintf("%.1fx", nodesSaved), secs(run.total), fmt.Sprintf("%.1fx", speedup),
			})
			r.Quality["recall/"+name+"/"+sp.mode] = run.recall
			r.Quality["map/"+name+"/"+sp.mode] = run.mapScore
			r.Quality["guarantee/"+name+"/"+sp.mode] = run.guarantee
			r.Quality["nodes_ratio/"+name+"/"+sp.mode] = nodesSaved
			if cur, ok := minRecall[sp.mode]; !ok || run.recall < cur {
				minRecall[sp.mode] = run.recall
			}
			if nodesSaved > 0 {
				logRatio[sp.mode] += math.Log(nodesSaved)
				ratioN[sp.mode]++
			}
		}
	}
	for mode, v := range minRecall {
		r.Quality[mode+"/recall/min"] = v
	}
	// The aggregate node savings per mode is the geometric mean of the
	// per-method ratios: the honest average for a ratio metric, not
	// dominated by the filter-file methods' two-order-of-magnitude savings.
	for mode, n := range ratioN {
		if mode != "exact" && n > 0 {
			r.Quality[mode+"/nodes_ratio/gmean"] = math.Exp(logRatio[mode] / float64(n))
		}
	}
	return r, nil
}

// runApproxMode answers the whole workload in one mode, collecting the
// per-query answers for scoring and tallying cost like runMethod does (the
// MemStats bracket keeps hydra-bench's allocation profile honest about
// these queries too).
func runApproxMode(m core.Method, coll *core.Collection, wl *dataset.Workload, cfg Config, mode string, spec core.ApproxSpec) (*approxModeRun, [][]core.Match, error) {
	run := &approxModeRun{mode: mode}
	answers := make([][]core.Match, len(wl.Queries))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for qi, q := range wl.Queries {
		matches, qs, err := core.RunQueryApprox(context.Background(), m, coll, q, cfg.K, spec)
		if err != nil {
			return nil, nil, err
		}
		answers[qi] = matches
		run.nodes += float64(qs.NodesVisited)
		run.total += qs.TotalTime(cfg.Device)
	}
	queryMem.nanos.Add(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&m1)
	queryMem.queries.Add(int64(len(wl.Queries)))
	queryMem.bytes.Add(int64(m1.TotalAlloc - m0.TotalAlloc))
	queryMem.allocs.Add(int64(m1.Mallocs - m0.Mallocs))
	if n := len(wl.Queries); n > 0 {
		run.nodes /= float64(n)
	}
	return run, answers, nil
}

// scoreApproxRun fills the answer-quality fields of run by comparing its
// per-query answers against the exact oracle: recall@k (overlap of ID
// sets), MAP (mean average precision over the ranked approximate answer),
// and the fraction of queries whose k-th distance meets the (1+ε)
// guarantee. The exact run scores 1.0 everywhere by construction.
func scoreApproxRun(run *approxModeRun, answers, exact [][]core.Match, eps float64) {
	n := len(exact)
	if n == 0 {
		return
	}
	for qi := range exact {
		truth := make(map[int]bool, len(exact[qi]))
		for _, mt := range exact[qi] {
			truth[mt.ID] = true
		}
		got := answers[qi]
		if len(truth) == 0 {
			run.recall++
			run.mapScore++
			run.guarantee++
			continue
		}
		hits, ap := 0, 0.0
		for i, mt := range got {
			if truth[mt.ID] {
				hits++
				ap += float64(hits) / float64(i+1)
			}
		}
		run.recall += float64(hits) / float64(len(truth))
		run.mapScore += ap / float64(len(truth))
		// The guarantee compares k-th best distances: an approximate answer
		// within factor (1+ε) of the true k-th neighbor satisfies δ-ε.
		trueK := exact[qi][len(exact[qi])-1].Dist
		gotK := trueK
		if len(got) > 0 {
			gotK = got[len(got)-1].Dist
		}
		if gotK <= (1+eps)*trueK || gotK == trueK {
			run.guarantee++
		}
	}
	run.recall /= float64(n)
	run.mapScore /= float64(n)
	run.guarantee /= float64(n)
}
