package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hydra"
)

// ingest-mixed: writes beside reads on one engine, on two open-loop
// schedules. WAL fsync is off (the stated flush policy: the workload measures
// the ingest pipeline and its lock, not the disk); checkpoints still fsync.

const (
	ingestBase = 20000 // series the engine is built over
	// A checkpoint rewrites every series appended since the base, under the
	// lock that excludes queries, so its length grows with that tail. The
	// sizes below keep the tail between about 1 000 and 3 000 series: fifty
	// stalls of 6 to 16 ms in a 10 s phase, which op_p99_ms then averages
	// over. At the 5 000 to 13 000 series this workload was first sized with,
	// ten stalls of 30 to 70 ms, one checkpoint that met a collection cycle
	// (100 ms and more) set op_p99_ms by itself and it moved 25 % from run to
	// run.
	ingestBatch = 4 // series per Append
	// Before the measured phase the directory holds a checkpoint with
	// prepCheckpointed series and a log suffix of prepLogged more — the
	// state a restart recovers, which is the workload's set-up time.
	prepCheckpointed = 512
	prepLogged       = 256
	appendPeriod     = 20 * time.Millisecond // writer: one batch per period
	checkpointEvery  = 10                    // writer: a Checkpoint after every 10th batch
	// warmCheckpoints append-and-checkpoint cycles run untimed before the
	// measured phase, so it starts with background work in its steady state:
	// the heap already sized for a checkpoint's buffers, the checkpoint file
	// already replaced a few times.
	warmCheckpoints = 2
	queryPeriod     = 8 * time.Millisecond // reader: 125 queries/s
	verifyQueries   = 64
	// The traced run's direct probes (wal.Log.Append, bulk append) use the
	// batch the issue names, 16 series, whatever the workload's schedule is.
	probeBatch       = 16
	bulkAppendSeries = 4096
)

// openIngest opens (or reopens: recovery) the ADS+ engine over base in dir.
func openIngest(base *hydra.Dataset, dir string) (*hydra.Engine, error) {
	return hydra.BuildIndex(context.Background(), "ADS+", hydra.WithData(base), hydra.WithIngestDir(dir), hydra.WithWALSync("off"))
}

// appendAll appends rows to eng in batches of ingestBatch.
func appendAll(eng *hydra.Engine, rows [][]float32) error {
	for lo := 0; lo < len(rows); lo += ingestBatch {
		if err := eng.Append(context.Background(), rows[lo:min(lo+ingestBatch, len(rows))]...); err != nil {
			return err
		}
	}
	return nil
}

func runIngestMixed(e *env) (*result, error) {
	r := newResult("ingest-mixed")
	dir, err := e.workloadDir(r.workload)
	if err != nil {
		return nil, err
	}
	ingestDir := filepath.Join(dir, "ingest")
	seconds := e.seconds
	if e.trace {
		seconds /= traceShare
	}
	writer := schedule{period: appendPeriod}
	reader := schedule{period: queryPeriod}
	rounds, queries := writer.count(seconds), reader.count(seconds)

	var base *hydra.Dataset
	var qs [][]float32
	var pool [][]float32 // every series any phase appends, in order
	if r.prepareS, err = timed(func() error {
		if base, err = genCollection(ingestBase, e.seed); err != nil {
			return err
		}
		qs = genQueries(base, listLen, e.seed)
		phases := 1
		if e.trace {
			phases = 2 // an untraced phase for the overhead figure, then the traced one
		}
		extra, err := genCollection(max(bulkAppendSeries, prepCheckpointed+prepLogged+(warmCheckpoints*checkpointEvery+phases*rounds)*ingestBatch), e.seed+2)
		if err != nil {
			return err
		}
		for i := 0; i < extra.Len(); i++ {
			pool = append(pool, extra.Series(i))
		}
		eng, err := openIngest(base, ingestDir)
		if err != nil {
			return err
		}
		if err := appendAll(eng, pool[:prepCheckpointed]); err != nil {
			return err
		}
		if err := eng.Checkpoint(context.Background()); err != nil {
			return err
		}
		if err := appendAll(eng, pool[prepCheckpointed:prepCheckpointed+prepLogged]); err != nil {
			return err
		}
		return eng.Close()
	}); err != nil {
		return nil, err
	}
	appended := prepCheckpointed + prepLogged

	// Set-up is a restart: rebuild over the base, replay the checkpoint
	// tail, replay the log suffix.
	var eng *hydra.Engine
	if err := repeatSetup(r, 3, func() error {
		eng, err = openIngest(base, ingestDir)
		return err
	}, func() error {
		err := eng.Close()
		eng = nil
		return err
	}); err != nil {
		return nil, err
	}
	defer func() { eng.Close() }() // whichever engine is current: the restart below replaces it
	r.check(eng.Len() == ingestBase+appended)
	for _, q := range qs { // warm-up: the full query list once, untimed
		got, err := eng.Query(context.Background(), q, topK)
		r.check(err == nil && wellFormed(got, topK, eng.Len()))
	}
	for c := 0; c < warmCheckpoints; c++ {
		n := checkpointEvery * ingestBatch
		err := appendAll(eng, pool[appended:appended+n])
		if err == nil {
			err = eng.Checkpoint(context.Background())
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up cycle %d: %w", c, err)
		}
		appended += n
	}

	classes := []classSpec{{"query", true}, {"append", false}, {"checkpoint", false}}
	// phase runs both schedules side by side for the phase's duration and
	// returns every operation's latency, measured from its due time, and how
	// late the writer issued each append.
	phase := func(tr *tracer) (*samples, []float64) {
		ws, rs := newSamples(classes), newSamples(classes)
		first := appended
		var wg sync.WaitGroup
		wg.Add(2)
		start := time.Now()
		writer.start, reader.start = start, start
		go func() { // the writer's schedule
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				issued := writer.wait(i)
				ws.lateMs = append(ws.lateMs, float64(writer.lateness(i, issued).Nanoseconds())/1e6)
				op := tr.begin(0, "append", "op")
				sp := tr.begin(op, "append", "engine.append")
				lo := first + i*ingestBatch
				err := eng.Append(context.Background(), pool[lo:lo+ingestBatch]...)
				tr.end(sp)
				tr.end(op)
				ws.add(1, opResult{dur: writer.latency(i, time.Now()), ok: err == nil, recall: math.NaN()})
				if (i+1)%checkpointEvery == 0 {
					op := tr.begin(0, "checkpoint", "op")
					sp := tr.begin(op, "checkpoint", "engine.checkpoint")
					err := eng.Checkpoint(context.Background())
					tr.end(sp)
					tr.end(op)
					ws.add(2, opResult{dur: writer.latency(i, time.Now()), ok: err == nil, recall: math.NaN()})
				}
			}
			ws.wall = time.Since(start)
		}()
		go func() { // the reader's schedule
			defer wg.Done()
			for j := 0; j < queries; j++ {
				issued := reader.wait(j)
				rs.lateMs = append(rs.lateMs, float64(reader.lateness(j, issued).Nanoseconds())/1e6)
				op := tr.begin(0, "query", "op")
				sp := tr.begin(op, "query", "engine.query")
				got, err := eng.Query(context.Background(), qs[j%len(qs)], topK)
				tr.end(sp)
				tr.end(op)
				// The collection grows under the reader, so answers are
				// checked for form here and for content after recovery.
				ok := err == nil && wellFormed(got, topK, ingestBase+len(pool))
				rs.add(0, opResult{dur: reader.latency(j, time.Now()), ok: ok, recall: math.NaN()})
			}
			rs.wall = time.Since(start)
		}()
		wg.Wait()
		appended += rounds * ingestBatch
		writerLate := ws.lateMs
		ws.merge(rs)
		return ws, writerLate
	}

	var traced *samples
	var writerLate []float64
	if !e.trace {
		r.s, _ = phase(nil)
	} else {
		plain, _ := phase(nil)
		r.tr = newTracer(r.workload)
		traced, writerLate = phase(r.tr)
		r.extraAttempted += plain.attempted + traced.attempted
		r.extraFailed += plain.failed + traced.failed
		r.layers["bench.trace_overhead_pct"] = (median(traced.latMs[0])/median(plain.latMs[0]) - 1) * 100
	}
	r.rssMB = peakRSSMB(os.Getpid())
	stats, _ := eng.IngestStats()
	checkpointBytes := fileSize(filepath.Join(ingestDir, "ingest.ckpt"))

	// Durability check: close, restart, and compare with a scan engine that
	// received the same appends and was never closed.
	if err := eng.Close(); err != nil {
		return nil, err
	}
	reopened, err := openIngest(base, ingestDir)
	if err != nil {
		return nil, fmt.Errorf("reopening after the measured phase: %w", err)
	}
	eng = reopened
	never, err := hydra.Open("", hydra.WithData(base), hydra.WithIngestDir(filepath.Join(dir, "never-closed")), hydra.WithWALSync("off"))
	if err != nil {
		return nil, err
	}
	defer never.Close()
	if err := appendAll(never, pool[:appended]); err != nil {
		return nil, err
	}
	r.check(eng.Len() == never.Len())
	var recall float64
	for _, q := range qs[:verifyQueries] {
		want, err := never.Query(context.Background(), q, topK)
		if err != nil {
			return nil, err
		}
		got, err := eng.Query(context.Background(), q, topK)
		ok, rec := exactResult(got, want, err, sameAnswer)
		r.check(ok)
		recall += rec
	}
	r.recallOverride = recall / verifyQueries
	if !e.trace {
		return r, nil
	}

	r.layers["hydra.append_p50_ms"] = median(r.tr.durationsMs("engine.append", ""))
	r.layers["hydra.append_late_p99_ms"] = percentile(writerLate, 99)
	ck := r.tr.durationsMs("engine.checkpoint", "")
	r.layers["hydra.checkpoint_p50_ms"] = median(ck)
	r.layers["hydra.checkpoint_max_ms"] = percentile(ck, 100)
	r.layers["hydra.checkpoint_bytes"] = float64(checkpointBytes)
	r.layers["hydra.query_stall_max_ms"] = percentile(traced.latMs[0], 100)
	r.layers["hydra.recovery_s"] = median(r.setupS)
	r.layers["wal.records"] = float64(stats.WALRecords)
	r.layers["wal.syncs"] = float64(stats.Syncs)
	if stats.WALSeries > 0 {
		r.layers["wal.bytes_per_user_byte"] = float64(stats.WALBytes) / float64(stats.WALSeries*seriesLen*4)
	}
	r.layers["bench.generator_late_p99_ms"] = percentile(traced.lateMs, 99)
	if err := probeWAL(r, dir, base); err != nil {
		return nil, err
	}
	return r, probeBulkAppend(r, dir, base, pool[:bulkAppendSeries])
}
