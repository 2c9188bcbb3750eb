// Command hydra-bench regenerates the figures and tables of the paper's
// evaluation section (§4.3) on the simulated-disk substrate.
//
// Usage:
//
//	hydra-bench -experiment all              # everything (slow)
//	hydra-bench -experiment fig6 -scale 1024 # one artifact at 1/1024 scale
//	hydra-bench -experiment fig5 -index idx/ # cache indexes across runs
//	hydra-bench -experiment fig3 -out bench/ # also write bench/BENCH_fig3.json
//	hydra-bench -experiment approx -mode delta-eps -gate-recall 0.95
//	hydra-bench -list
//
// The approx experiment (the sequel paper's accuracy-vs-latency comparison)
// honors -mode/-epsilon/-delta and records recall/MAP/node-ratio metrics in
// its BENCH json; -gate-recall turns the run into a CI gate that fails when
// any reported approximate mode's minimum recall drops below the bound.
//
// With -index, tree indexes are snapshotted into the named directory on
// first build and loaded on later runs (build-once/query-many): only the
// first run of a parametrization pays construction, and the build column of
// cached runs reports snapshot load cost instead.
//
// Every experiment additionally reports its allocation profile — bytes/query
// and allocs/query from runtime.MemStats deltas over the queries the
// experiment answered — so the zero-allocation query-path work stays visible
// run over run; -out writes each report plus that profile to
// BENCH_<id>.json for trend tracking.
//
// The -scale flag is the divisor applied to the paper's collection sizes
// (1 = full paper scale; 1024 = default; 16384 = quick smoke run).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hydra/internal/dataset"
	"hydra/internal/experiments"
	"hydra/internal/persist"

	// The public package registers every method and pins the engine
	// semantics (cancellation, pooling, kernels) the harness measures.
	// hydra-bench is the one CLI that additionally reaches into
	// internal/experiments: the paper's figures are a research harness
	// beside the serving surface, not part of it.
	_ "hydra"
)

// memProfile is the per-experiment allocation report derived from
// runtime.MemStats deltas bracketing the workload-answering phase
// (experiments.QueryMemTally), so index construction and data generation do
// not pollute the per-query numbers.
type memProfile struct {
	Queries        int64   `json:"queries"`
	BytesPerQuery  float64 `json:"bytes_per_query"`
	AllocsPerQuery float64 `json:"allocs_per_query"`
	NsPerQuery     float64 `json:"ns_per_query"`
}

// benchJSON is the schema of a BENCH_<id>.json artifact. Host records the
// machine and the selected SIMD kernel backend, so numbers from different
// machines (or backends) are never silently compared as like for like.
type benchJSON struct {
	ID        string               `json:"id"`
	Title     string               `json:"title"`
	Scale     float64              `json:"scale_divisor"`
	Workers   int                  `json:"workers"`
	WallClock string               `json:"wall_clock"`
	Host      experiments.HostInfo `json:"host"`
	Header    []string             `json:"header"`
	Rows      [][]string           `json:"rows"`
	Notes     []string             `json:"notes,omitempty"`
	Mem       memProfile           `json:"mem"`
	// Quality carries answer-quality metrics (recall/MAP/node ratios keyed
	// "metric/method/mode" plus "<mode>/recall/min" aggregates) for
	// experiments with an accuracy dimension; tools/benchdiff fails a run
	// whose recall drops below the baseline like it fails a ns/query
	// regression.
	Quality map[string]float64 `json:"quality,omitempty"`
}

// measureMem converts query-tally deltas into the per-query profile. The
// underlying counters (TotalAlloc, Mallocs) are monotonic, so the deltas
// are exact regardless of concurrent GC.
func measureMem(q0, b0, a0, n0, q1, b1, a1, n1 int64) memProfile {
	p := memProfile{Queries: q1 - q0}
	if p.Queries > 0 {
		p.BytesPerQuery = float64(b1-b0) / float64(p.Queries)
		p.AllocsPerQuery = float64(a1-a0) / float64(p.Queries)
		p.NsPerQuery = float64(n1-n0) / float64(p.Queries)
	}
	return p
}

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (see -list) or 'all'")
		scaleDiv   = flag.Float64("scale", 1024, "scale divisor: paper sizes are divided by this (1 = full paper scale)")
		queries    = flag.Int("queries", 100, "queries per workload")
		seriesLen  = flag.Int("length", 256, "default series length")
		seed       = flag.Int64("seed", 1, "generator seed")
		k          = flag.Int("k", 1, "number of nearest neighbors")
		workers    = flag.Int("workers", 1, "cap on the goroutines one scan query uses (1 = the paper's serial pass, 0 = every core)")
		indexDir   = flag.String("index", "", "snapshot cache directory: persist indexes on first build, load on later runs")
		outDir     = flag.String("out", "", "directory for BENCH_<id>.json artifacts (report + allocation profile)")
		list       = flag.Bool("list", false, "list experiments and exit")

		mode       = flag.String("mode", "", "approx experiment: comma list of modes to report (exact,ng,delta-eps; empty = all)")
		epsilon    = flag.Float64("epsilon", 0, "approx experiment: delta-eps relative error bound ε (0 = default 1.0)")
		delta      = flag.Float64("delta", 0, "approx experiment: delta-eps confidence δ (0 = default 0.95)")
		gateRecall = flag.Float64("gate-recall", 0, "fail (exit 1) when any approximate mode's min recall falls below this (0 = no gate)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		return
	}
	if *scaleDiv <= 0 {
		fmt.Fprintln(os.Stderr, "hydra-bench: -scale must be positive")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig(1 / *scaleDiv)
	cfg.NumQueries = *queries
	cfg.SeriesLen = *seriesLen
	cfg.Seed = *seed
	cfg.K = *k
	cfg.Workers = *workers
	cfg.IndexDir = *indexDir
	cfg.Epsilon = *epsilon
	cfg.Delta = *delta
	if *mode != "" {
		for _, m := range strings.Split(*mode, ",") {
			if m = strings.TrimSpace(m); m != "" {
				cfg.Modes = append(cfg.Modes, m)
			}
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
			os.Exit(1)
		}
	}

	host := experiments.Host()
	fmt.Printf("hydra-bench: %s\n\n", host)

	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
	}
	for _, id := range ids {
		start := time.Now()
		q0, b0, a0, n0 := experiments.QueryMemTally()
		rep, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
			os.Exit(1)
		}
		q1, b1, a1, n1 := experiments.QueryMemTally()
		elapsed := time.Since(start).Round(time.Millisecond)
		mem := measureMem(q0, b0, a0, n0, q1, b1, a1, n1)
		rep.Fprint(os.Stdout)
		fmt.Printf("mem: %.0f bytes/query, %.1f allocs/query, %.0f ns/query over %d queries\n",
			mem.BytesPerQuery, mem.AllocsPerQuery, mem.NsPerQuery, mem.Queries)
		fmt.Printf("(%s regenerated in %s at scale 1/%.0f)\n\n", rep.ID, elapsed, *scaleDiv)
		if *outDir != "" {
			art := benchJSON{
				ID: rep.ID, Title: rep.Title, Scale: *scaleDiv, Workers: *workers,
				WallClock: elapsed.String(), Host: host, Header: rep.Header,
				Rows: rep.Rows, Notes: rep.Notes, Mem: mem, Quality: rep.Quality,
			}
			blob, err := json.MarshalIndent(art, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, "BENCH_"+rep.ID+".json")
			// Write-then-rename (the snapshot store's atomic helper): an
			// interrupted run leaves the previous BENCH artifact intact
			// instead of a truncated JSON that poisons trend tooling.
			if err := persist.WriteFileAtomic(path, append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "hydra-bench: %v\n", err)
				os.Exit(1)
			}
		}
		// The recall gate runs after the artifact write on purpose: a failing
		// run still records its evidence for benchdiff and postmortems.
		if *gateRecall > 0 {
			for key, v := range rep.Quality {
				mode, ok := strings.CutSuffix(key, "/recall/min")
				if !ok || mode == "exact" {
					continue
				}
				if v < *gateRecall {
					fmt.Fprintf(os.Stderr, "hydra-bench: %s mode %s min recall %.4f below gate %.4f\n",
						rep.ID, mode, v, *gateRecall)
					os.Exit(1)
				}
			}
		}
	}
	_ = dataset.ScaleDefault // documented in -scale help
}
