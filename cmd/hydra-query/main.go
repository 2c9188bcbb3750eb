// Command hydra-query builds (or loads) one similarity search engine per
// requested method through the public hydra package and answers exact k-NN
// queries, printing per-query costs (the paper's measures: time, disk
// accesses, pruning ratio).
//
// Usage:
//
//	hydra-query -data synth.hyd -queries q.hyd -method DSTree -k 1
//	hydra-query -data synth.hyd -queries q.hyd -method all -device ssd
//	hydra-query -data synth.hyd -queries q.hyd -method UCR-Suite -workers -1
//	hydra-query -data synth.hyd -queries q.hyd -index dstree.hydx
//	hydra-query -data synth.hyd -queries q.hyd -method DSTree -timeout 100ms
//	hydra-query -data synth.hyd -queries q.hyd -method DSTree -mode delta-eps -epsilon 1 -delta 0.95
//
// With -mode, queries are answered approximately (ng, delta-eps, or budget
// — see hydra.WithApproxMode); the Nodes column then shows the traversal
// work each mode saved against an exact run.
//
// With -index, the named snapshot (from hydra-build) is loaded instead of
// rebuilding: the Idx(s) column then reports load time, the pay-per-run cost
// of the build-once/query-many workflow. With -timeout, every query runs
// under that deadline and an overrun aborts the run — the CLI face of the
// engine's cooperative cancellation.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"

	"hydra"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "collection file (from hydra-gen)")
		queryPath = flag.String("queries", "", "workload file (from hydra-gen)")
		method    = flag.String("method", "DSTree", "method name, comma list, or 'all'")
		indexPath = flag.String("index", "", "index snapshot (from hydra-build) to load instead of building")
		k         = flag.Int("k", 1, "number of nearest neighbors")
		leafSize  = flag.Int("leaf", 0, "leaf size (0 = paper default scaled to collection)")
		device    = flag.String("device", "hdd", "device profile: hdd|ssd")
		workers   = flag.Int("workers", 0, "intra-query scan parallelism (0 = serial, -1 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "per-query deadline (0 = none)")
		verbose   = flag.Bool("v", false, "print every match")

		mode       = flag.String("mode", "", "answering mode: exact|ng|delta-eps|budget (default exact)")
		epsilon    = flag.Float64("epsilon", 0, "delta-eps mode: relative distance-error bound ε")
		delta      = flag.Float64("delta", 0, "delta-eps mode: confidence δ in (0,1]; 0/1 = deterministic ε guarantee")
		nodeBudget = flag.Int("node-budget", 0, "budget/delta-eps modes: max index nodes visited (0 = unlimited)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hydra-query: "+format+"\n", args...)
		os.Exit(1)
	}
	if *dataPath == "" || *queryPath == "" {
		fail("-data and -queries are required")
	}
	dev, err := hydra.DeviceByName(*device)
	if err != nil {
		fail("%v", err)
	}

	ds, err := hydra.OpenDataset(*dataPath)
	if err != nil {
		fail("loading data: %v", err)
	}
	wl, err := hydra.OpenWorkload(*queryPath)
	if err != nil {
		fail("loading queries: %v", err)
	}
	if err := wl.Validate(ds.SeriesLen()); err != nil {
		fail("%v", err)
	}

	names := hydra.ParseMethods(*method, hydra.Methods())
	if len(names) == 0 {
		fail("-method names no methods")
	}
	if *indexPath != "" {
		// Snapshot mode: one run, method named by the snapshot itself.
		names = names[:1]
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := []hydra.Option{
		hydra.WithData(ds), hydra.WithDevice(dev),
		hydra.WithLeafSize(*leafSize), hydra.WithWorkers(*workers),
		hydra.WithApproxMode(*mode), hydra.WithEpsilon(*epsilon),
		hydra.WithDelta(*delta), hydra.WithNodeBudget(*nodeBudget),
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Method\tIdx(s)\tQueries(s)\tSeqOps\tRandOps\tPruning\tNodes\tMeanDist")
	for _, name := range names {
		var e *hydra.Engine
		if *indexPath != "" {
			e, err = hydra.LoadIndex(ctx, *indexPath, opts...)
			if err != nil {
				fail("loading index %s: %v", *indexPath, err)
			}
			methodSet := false
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "method" {
					methodSet = true
				}
			})
			if methodSet && name != e.Method() {
				fail("-method %s conflicts with snapshot method %s", name, e.Method())
			}
			name = e.Method()
		} else {
			e, err = hydra.BuildIndex(ctx, name, opts...)
			if err != nil {
				fail("building %s: %v", name, err)
			}
		}
		var totalDist float64
		var nMatches int
		ws := struct {
			seq, rnd int64
			nodes    int64
			prune    float64
			secs     float64
		}{}
		for qi := 0; qi < wl.Len(); qi++ {
			qctx, cancel := ctx, context.CancelFunc(func() {})
			if *timeout > 0 {
				qctx, cancel = context.WithTimeout(ctx, *timeout)
			}
			matches, qs, err := e.QueryWithStats(qctx, wl.Query(qi), *k)
			cancel()
			if err != nil {
				fail("%s query %d: %v", name, qi, err)
			}
			ws.seq += qs.IO.SeqOps
			ws.rnd += qs.IO.RandOps
			ws.nodes += qs.NodesVisited
			ws.prune += qs.PruningRatio()
			ws.secs += qs.TotalTime(dev).Seconds()
			for _, mt := range matches {
				totalDist += mt.Dist
				nMatches++
				if *verbose {
					fmt.Printf("%s q%d -> series %d dist %.6f\n", name, qi, mt.ID, mt.Dist)
				}
			}
		}
		nq := float64(wl.Len())
		bs := e.BuildStats()
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\t%d\t%.4f\t%d\t%.4f\n",
			name, bs.TotalTime(dev).Seconds(), ws.secs,
			ws.seq, ws.rnd, ws.prune/nq, ws.nodes, totalDist/float64(nMatches))
	}
	tw.Flush()
}
