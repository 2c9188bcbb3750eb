// Seismic-event matching: the paper's motivating use case from seismology
// (its Seismic dataset comes from the IRIS archive). An analyst has a
// recording of a characteristic event and wants the most similar historical
// recordings — an exact whole-matching k-NN query over a large archive.
//
// This example builds the archive with the suite's seismic simulator,
// answers a 5-NN query with the paper's recommended method for
// disk-resident short series (DSTree / VA+file), and shows why a sequential
// scan is the wrong tool on an archive this size.
package main

import (
	"context"
	"fmt"
	"log"

	"hydra"
)

func main() {
	const (
		archiveSize = 50000 // historical recordings
		length      = 256   // samples per recording window
	)
	archive, err := hydra.Generate("seismic", archiveSize, length, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seismic archive: %d recordings × %d samples\n", archive.Len(), archive.SeriesLen())

	// The "event of interest": a real recording from the archive with sensor
	// noise on top — exactly how the paper builds its controlled workloads.
	event := hydra.ControlledWorkload(archive, 1, 0.5, 99).Query(0)

	ctx := context.Background()
	for _, name := range []string{"VA+file", "DSTree", "UCR-Suite"} {
		e, err := hydra.BuildIndex(ctx, name, hydra.WithData(archive))
		if err != nil {
			log.Fatal(err)
		}
		matches, qs, err := e.QueryWithStats(ctx, event, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s — 5 most similar historical events:\n", name)
		for rank, mt := range matches {
			fmt.Printf("  #%d recording %6d  distance %.4f\n", rank+1, mt.ID, mt.Dist)
		}
		fmt.Printf("  cost: %.2f MB moved, %d seeks, pruning %.3f, simulated HDD I/O %v\n",
			float64(qs.IO.TotalBytes())/1e6, qs.IO.RandOps, qs.PruningRatio(),
			qs.IO.IOTime(hydra.HDD).Round(1e6))
	}
}
