// Access-path selection: the paper's §5 closes with the observation that
// choosing between a sequential scan and an index is an optimization problem
// driven by (a) summarization effectiveness (pruning ratio), (b) data
// clustering, and (c) hardware. This example makes that concrete: it runs an
// easy workload and a hard workload over the same collection and shows the
// scan/index crossover on both device profiles — reproducing the paper's
// finding that hard (low-pruning) queries favour the sequential scan on
// spinning disks, while SSDs favour the skip-sequential methods.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"
	"time"

	"hydra"
)

func main() {
	ds, err := hydra.Generate("deep", 30000, 96, 7) // the hardest-to-summarize collection
	if err != nil {
		log.Fatal(err)
	}
	workloads := []struct {
		name string
		w    *hydra.Workload
	}{
		{"easy (low noise)", hydra.ControlledWorkload(ds, 20, 0.05, 1)}, // near-duplicates: high pruning
		{"hard (independent)", hydra.DeepOrigWorkload(20, 96, 2)},       // independent vectors: low pruning
	}

	ctx := context.Background()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Workload\tMethod\tPruning\tSeeks/q\tHDD time/q\tSSD time/q")
	for _, wl := range workloads {
		for _, method := range []string{"UCR-Suite", "VA+file", "DSTree"} {
			e, err := hydra.BuildIndex(ctx, method, hydra.WithData(ds))
			if err != nil {
				log.Fatal(err)
			}
			var pruning float64
			var seeks int64
			var hdd, ssd time.Duration
			for _, q := range wl.w.Queries() {
				_, qs, err := e.QueryWithStats(ctx, q, 1)
				if err != nil {
					log.Fatal(err)
				}
				pruning += qs.PruningRatio()
				seeks += qs.IO.RandOps
				hdd += qs.TotalTime(hydra.HDD)
				ssd += qs.TotalTime(hydra.SSD)
			}
			nq := wl.w.Len()
			fmt.Fprintf(tw, "%s\t%s\t%.3f\t%d\t%v\t%v\n", wl.name, method,
				pruning/float64(nq), seeks/int64(nq),
				(hdd / time.Duration(nq)).Round(100*time.Microsecond),
				(ssd / time.Duration(nq)).Round(100*time.Microsecond))
		}
	}
	tw.Flush()
	fmt.Println("\nReading the table: when pruning collapses (hard workload), the scan's")
	fmt.Println("pure-sequential pattern wins on the HDD profile; cheap SSD seeks flip the")
	fmt.Println("decision back toward the filter-based methods — the paper's access-path")
	fmt.Println("selection problem in one table.")
}
