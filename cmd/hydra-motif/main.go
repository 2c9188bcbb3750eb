// Command hydra-motif computes the matrix profile of one long series and
// reports its top motif pairs and discords, through the public hydra
// package.
//
// Usage:
//
//	hydra-motif -data walk.hyd -window 256
//	hydra-motif -data walk.hyd -window 256 -k 5 -workers 1
//	hydra-motif -data walk.hyd -window 256 -exclusion 64 -profile-out profile.txt
//
// The input collection must hold exactly one series (hydra-gen -long emits
// one, with planted motifs to find). The profile's diagonals are walked by
// the caller and by helpers on idle cores, up to the -workers cap (0 = every
// core, 1 = serial); every cap prints identical results. With
// -profile-out, the full profile (offset, distance, neighbor per window) is
// written to the named file for plotting.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"text/tabwriter"
	"time"

	"hydra"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "collection file holding one long series (hydra-gen -long)")
		window     = flag.Int("window", 256, "motif/discord window length m")
		k          = flag.Int("k", 3, "how many motif pairs and discords to report")
		exclusion  = flag.Int("exclusion", -1, "trivial-match exclusion radius (-1 = default m/4)")
		workers    = flag.Int("workers", 0, "cap on the goroutines that walk the profile's diagonals (0 = every core, 1 = serial)")
		timeout    = flag.Duration("timeout", 0, "computation deadline (0 = none)")
		profileOut = flag.String("profile-out", "", "write the full profile (offset dist neighbor) to this file")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "hydra-motif: "+format+"\n", args...)
		os.Exit(1)
	}
	if *dataPath == "" {
		fail("-data is required")
	}

	e, err := hydra.Open(*dataPath, hydra.WithWorkers(*workers))
	if err != nil {
		fail("%v", err)
	}

	// Ctrl-C cancels the profile cooperatively, like every engine call.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	opts := []hydra.Option{hydra.WithTopK(*k)}
	if *exclusion >= 0 {
		opts = append(opts, hydra.WithExclusionZone(*exclusion))
	}
	start := time.Now()
	p, err := e.MatrixProfile(ctx, *window, opts...)
	if err != nil {
		fail("%v", err)
	}
	elapsed := time.Since(start)

	fmt.Printf("profile: %d windows of length %d, exclusion %d, %d diagonals (%d pairs) on %d workers in %s\n",
		p.Stats.Windows, p.M, p.Exclusion, p.Stats.Diagonals, p.Stats.Pairs, p.Stats.Workers, elapsed.Round(time.Millisecond))

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "motif\tA\tB\tdist")
	for i, m := range p.Motifs(*k) {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.4f\n", i+1, m.A, m.B, m.Dist)
	}
	fmt.Fprintln(w, "discord\toffset\tdist\t")
	for i, d := range p.Discords(*k) {
		fmt.Fprintf(w, "%d\t%d\t%.4f\t\n", i+1, d.Index, d.Dist)
	}
	w.Flush()

	if *profileOut != "" {
		if err := writeProfile(*profileOut, p); err != nil {
			fail("writing profile: %v", err)
		}
		fmt.Printf("wrote %s\n", *profileOut)
	}
}

// writeProfile dumps the per-window profile as "offset dist neighbor" lines.
func writeProfile(path string, p *hydra.MatrixProfile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for i, d := range p.Dist {
		fmt.Fprintf(bw, "%d %g %d\n", i, d, p.Neighbor[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
