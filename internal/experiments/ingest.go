package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"time"

	"hydra"
)

// ingestMethods are the methods with incremental-insert support — the set
// Engine.Append accepts (kept in sync with core.Ingester implementations).
var ingestMethods = []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree"}

// IngestThroughput measures the durable-ingestion path end to end for every
// ingest-capable method: series appended per second through the write-ahead
// log with fsync off (so the number measures the pipeline — framing, CRC,
// arena growth, incremental index insert — not the disk), plus the cost of
// folding the log into a checkpoint, and the cost of one small checkpoint on
// top of a short and of a long already-checkpointed tail. The quality block
// records "ingest/<method>/series_per_sec" and
// "ingest/checkpoint/short_over_long_tail" (see checkpointCost) so
// tools/benchdiff can gate regressions of either like any other metric.
//
// This experiment has no paper counterpart — the paper's systems are
// bulk-load-only; it exists to keep the ingestion subsystem's cost visible
// run over run.
func IngestThroughput(cfg Config) (*Report, error) {
	r := &Report{
		ID:      "ingest",
		Title:   "Durable ingestion throughput (WAL, fsync off)",
		Header:  []string{"Method", "Base", "Appended", "Series/s", "WALBytes", "CheckpointMs"},
		Quality: map[string]float64{},
	}
	const appended, batch = 2000, 50
	base := cfg.numSeries(1, cfg.SeriesLen)
	if base < 1000 {
		base = 1000
	}
	full, err := hydra.Generate("synthetic", base+appended, cfg.SeriesLen, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for _, name := range ingestMethods {
		dir, err := os.MkdirTemp("", "hydra-ingest-*")
		if err != nil {
			return nil, err
		}
		// A fresh base dataset per engine: appends grow the collection's
		// arena, which must not be shared across the swept engines.
		baseDS, err := hydra.Generate("synthetic", base, cfg.SeriesLen, cfg.Seed)
		if err != nil {
			return nil, err
		}
		e, err := hydra.BuildIndex(context.Background(), name,
			hydra.WithData(baseDS),
			hydra.WithLeafSize(leafFor(base+appended)),
			hydra.WithIngestDir(dir),
			hydra.WithWALSync("off"))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		for lo := base; lo < base+appended; lo += batch {
			rows := make([][]float32, 0, batch)
			for i := lo; i < lo+batch; i++ {
				rows = append(rows, full.Series(i))
			}
			if err := e.Append(context.Background(), rows...); err != nil {
				return nil, fmt.Errorf("ingest %s: %w", name, err)
			}
		}
		elapsed := time.Since(t0)
		st, _ := e.IngestStats()
		c0 := time.Now()
		if err := e.Checkpoint(context.Background()); err != nil {
			return nil, fmt.Errorf("ingest %s checkpoint: %w", name, err)
		}
		ckptMs := float64(time.Since(c0).Microseconds()) / 1e3
		perSec := float64(appended) / elapsed.Seconds()
		r.Rows = append(r.Rows, []string{
			name, fmt.Sprint(base), fmt.Sprint(appended),
			fmt.Sprintf("%.0f", perSec),
			fmt.Sprint(st.WALBytes),
			fmt.Sprintf("%.1f", ckptMs),
		})
		r.Quality[fmt.Sprintf("ingest/%s/series_per_sec", name)] = perSec
		e.Close()
		os.RemoveAll(dir)
	}
	if err := checkpointCost(cfg, r); err != nil {
		return nil, err
	}
	r.Notes = append(r.Notes,
		"fsync off isolates the pipeline cost (framing, CRC, arena growth, incremental insert); "+
			"UCR-Suite bounds it from above (no index work), the trees pay their per-series insert",
		"checkpoint@tail=N rows: median of 5 checkpoints of 64 new series each, on an engine whose checkpoint log "+
			"already holds N appended series; a checkpoint writes what is new, so the two rows read the same")
	return r, nil
}

// checkpointCost adds the rows that keep a checkpoint O(delta): the same
// 64-series checkpoint timed on top of an already-checkpointed tail of 1 024
// and of 8 192 series. The quality metric is the ratio of the two medians,
// short tail over long — about 1 while a checkpoint writes only what is
// new, about 1/8 if it ever rewrites the tail again — so it is independent
// of how fast the host fsyncs and higher is better, as benchdiff expects.
// UCR-Suite keeps index work out of the measurement.
func checkpointCost(cfg Config, r *Report) error {
	tails := []int{1024, 8192}
	medians := make([]float64, len(tails))
	for ti, tail := range tails {
		ms, err := checkpointMedianMs(cfg, tail)
		if err != nil {
			return fmt.Errorf("ingest checkpoint cost: %w", err)
		}
		medians[ti] = ms
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("checkpoint@tail=%d", tail), fmt.Sprint(checkpointBase), fmt.Sprint(checkpointDelta), "-", "-",
			fmt.Sprintf("%.1f", ms),
		})
	}
	r.Quality["ingest/checkpoint/short_over_long_tail"] = medians[0] / medians[1]
	return nil
}

// The checkpoint-cost rows' engine: series it is built over, and series each
// timed checkpoint folds.
const (
	checkpointBase  = 1000
	checkpointDelta = 64
)

// checkpointMedianMs appends tail series to a fresh UCR-Suite engine,
// checkpoints them, and returns the median time of 5 further checkpoints of
// checkpointDelta new series each.
func checkpointMedianMs(cfg Config, tail int) (float64, error) {
	const rounds = 5
	data, err := hydra.Generate("synthetic", checkpointBase+tail+rounds*checkpointDelta, cfg.SeriesLen, cfg.Seed)
	if err != nil {
		return 0, err
	}
	base, err := hydra.Generate("synthetic", checkpointBase, cfg.SeriesLen, cfg.Seed)
	if err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp("", "hydra-ingest-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	e, err := hydra.BuildIndex(context.Background(), "UCR-Suite",
		hydra.WithData(base), hydra.WithIngestDir(dir), hydra.WithWALSync("off"))
	if err != nil {
		return 0, err
	}
	defer e.Close()
	// appendAndCheckpoint appends series [lo, hi) of data in batches of
	// checkpointDelta and returns how long the checkpoint after them took.
	appendAndCheckpoint := func(lo, hi int) (time.Duration, error) {
		for ; lo < hi; lo += checkpointDelta {
			rows := make([][]float32, 0, checkpointDelta)
			for i := lo; i < min(lo+checkpointDelta, hi); i++ {
				rows = append(rows, data.Series(i))
			}
			if err := e.Append(context.Background(), rows...); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := e.Checkpoint(context.Background())
		return time.Since(t0), err
	}
	at := checkpointBase + tail
	if _, err := appendAndCheckpoint(checkpointBase, at); err != nil {
		return 0, err
	}
	ms := make([]float64, rounds)
	for k := range ms {
		d, err := appendAndCheckpoint(at, at+checkpointDelta)
		if err != nil {
			return 0, err
		}
		ms[k] = float64(d.Microseconds()) / 1e3
		at += checkpointDelta
	}
	sort.Float64s(ms)
	return ms[rounds/2], nil
}
