package hydra

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/wal"
)

// File names inside the WithIngestDir directory.
const (
	// walFileName is the write-ahead log.
	walFileName = "ingest" + wal.Ext
	// checkpointFileName is the checkpoint log Engine.Checkpoint folds the
	// write-ahead log into: the same frames behind a header bound to the
	// base collection (see docs/FORMAT.md §6).
	checkpointFileName = "ingest.ckpt"
)

// ingestState is the durable-ingestion machinery attached to an engine by
// WithIngestDir. It hangs off the Engine by pointer, so derived engines
// (WithQueryOptions) share one ingest pipeline with their parent.
//
// Two locks, always taken in the order wmu then mu. wmu is the writer
// lock: Append, Checkpoint and Close hold it for their whole duration, so
// at most one of them runs and everything below except mu's own subject is
// theirs alone. mu is the append/query exclusion and guards only the
// collection extent and the method's index: queries hold it for read (many
// at once), Append for write while it applies a batch — an applied batch is
// visible to queries atomically, never half-inserted. Checkpoint never
// takes mu: with wmu held nothing can grow the collection, so it reads the
// series it folds beside running queries, and because a waiting Append
// queues on wmu, not on mu, it does not make new queries queue behind it.
type ingestState struct {
	wmu      sync.Mutex
	mu       sync.RWMutex
	log      *wal.Log // write-ahead log; nil once closed (written under wmu+mu)
	ckpt     *wal.Log // checkpoint log, always SyncAlways
	ingester core.Ingester
	logMode  wal.SyncMode
	// folded is the collection extent the checkpoint log covers: series
	// [baseCount, folded) are in it, [folded, Len) only in the write-ahead
	// log. Guarded by wmu.
	folded int
	// poisoned, once set, permanently fails Append and Checkpoint on this
	// engine: an acked log record could not be applied (or could not be
	// rolled back), so the in-memory extent and the durable state have
	// diverged — acking anything further would write records recovery must
	// refuse. A restart re-runs recovery from consistent durable state.
	// Guarded by wmu.
	poisoned error

	appended    atomic.Int64 // series appended via Append this process
	recovered   atomic.Int64 // series restored by startup recovery
	checkpoints atomic.Int64
}

// enableIngest wires durable ingestion onto a freshly constructed engine:
// both logs are read, the checkpoint log's records and then the write-ahead
// log's are replayed through exactly the same apply path as live appends —
// so a recovered engine is bit-identical to one that never crashed — and
// only when every record has fitted onto the one before it are the files
// touched (a torn tail truncated, a missing file created). Any failure up
// to that point leaves the directory byte-identical: a checkpoint log bound
// to another base, a legacy checkpoint, a gap, or damage in the middle of
// either file is an error for an operator to look at, not something to
// repair by dropping acked series.
func (e *Engine) enableIngest(cfg *config) error {
	ing, ok := e.m.(core.Ingester)
	if !ok {
		return fmt.Errorf("hydra: method %s: %w", e.m.Name(), ErrIngestUnsupported)
	}
	if e.shardCount > 0 {
		return fmt.Errorf("hydra: a sharded engine cannot ingest (append positions are collection-global)")
	}
	sl := e.coll.File.SeriesLen()
	if sl == 0 {
		return fmt.Errorf("hydra: cannot ingest into an empty collection")
	}
	mode, interval, err := wal.ParseSyncPolicy(cfg.walSync)
	if err != nil {
		return err
	}
	dir := cfg.ingestDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("hydra: creating ingest dir: %w", err)
	}
	st := &ingestState{ingester: ing, logMode: mode}
	base := wal.Binding{BaseCount: uint64(e.coll.File.Len()), BaseFP: core.Fingerprint(e.coll)}
	ckpt, folded, err := wal.Recover(filepath.Join(dir, checkpointFileName), sl, &base, wal.SyncAlways, 0)
	if err != nil {
		return fmt.Errorf("hydra: reading ingest checkpoint: %w", err)
	}
	log, logged, err := wal.Recover(filepath.Join(dir, walFileName), sl, nil, mode, interval)
	if err != nil {
		return fmt.Errorf("hydra: reading ingest log: %w", err)
	}
	// A checkpoint record can be torn only while the write-ahead log still
	// holds what it was folding — the log is truncated after the record's
	// fsync — so a torn tail beside an empty log is series lost, not a crash.
	if ckpt.Torn() && len(logged) == 0 {
		return fmt.Errorf("hydra: ingest checkpoint ends in a damaged record the ingest log does not cover: %w", ErrIngestCorrupt)
	}
	for _, r := range folded {
		if err := e.replayRecord(st, r); err != nil {
			return err
		}
	}
	st.folded = e.coll.File.Len()
	for _, r := range logged {
		if err := e.replayRecord(st, r); err != nil {
			return err
		}
	}
	if err := ckpt.Repair(); err != nil {
		return fmt.Errorf("hydra: opening ingest checkpoint: %w", err)
	}
	if err := log.Repair(); err != nil {
		ckpt.Close()
		return fmt.Errorf("hydra: opening ingest log: %w", err)
	}
	st.ckpt, st.log = ckpt, log
	e.ing = st
	return nil
}

// replayRecord applies one recovered record — of the checkpoint log or the
// write-ahead log — idempotently against the current collection extent:
// fully covered records are no-ops, a straddling record applies only its
// uncovered suffix, and a record past the extent is a gap — structural
// corruption recovery must not paper over.
func (e *Engine) replayRecord(st *ingestState, r wal.Record) error {
	sl := e.coll.File.SeriesLen()
	count := uint64(e.coll.File.Len())
	n := uint64(len(r.Values) / sl)
	switch {
	case r.FirstSeq+n <= count:
		return nil // already applied from an earlier record
	case r.FirstSeq > count:
		return fmt.Errorf("hydra: ingest log gap: record at position %d, collection has %d: %w", r.FirstSeq, count, ErrIngestCorrupt)
	default:
		skip := int(count-r.FirstSeq) * sl
		if err := e.applyValues(st, r.Values[skip:]); err != nil {
			return fmt.Errorf("hydra: replaying ingest log: %w", err)
		}
		st.recovered.Add(int64(len(r.Values)-skip) / int64(sl))
		return nil
	}
}

// applyValues appends the (already z-normalized) flat batch to the arena
// and inserts the new positions into the method — the one apply path shared
// by live appends, checkpoint replay and WAL replay, which is what makes
// recovery bit-identical to having never crashed.
func (e *Engine) applyValues(st *ingestState, values []float32) error {
	first := e.coll.File.Append(values)
	n := len(values) / e.coll.File.SeriesLen()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = first + i
	}
	return st.ingester.Insert(ids)
}

// Append durably ingests one or more series into the engine's collection:
// each series is z-normalized (exactly like dataset ingestion), the whole
// batch is written to the write-ahead log, fsynced per the WithWALSync
// policy, and only then applied to the arena and the method's index
// structures. When Append returns nil the batch is acked: it survives
// kill -9 at any byte boundary (recovery replays the log on the next
// start). When it returns an error the batch is not acked and recovery will
// never resurrect it: a failed log write is rewound before returning, and
// on the (invariant-violation) path where the log succeeded but the apply
// failed, the log record is rolled back and ingestion on this engine is
// poisoned — further Append/Checkpoint calls fail until a restart re-runs
// recovery from the consistent durable state. Queries observe a batch
// atomically — all of it or none — and queries already running finish on
// the pre-append extent: they are excluded only while the batch is applied,
// not while it is logged and fsynced.
//
// Append requires WithIngestDir and a method with incremental-insert
// support (UCR-Suite, ADS+, iSAX2+, DSTree); other methods return
// ErrIngestUnsupported. Appends are serialized with each other and with
// Checkpoint (an Append issued during a checkpoint returns after it); the
// ctx is checked once before logging (an append is not cancellable
// mid-flight — it either acks or fails).
func (e *Engine) Append(ctx context.Context, batch ...[]float32) error {
	if _, ok := e.m.(core.Ingester); !ok {
		return fmt.Errorf("hydra: method %s: %w", e.m.Name(), ErrIngestUnsupported)
	}
	st := e.ing
	if st == nil {
		return fmt.Errorf("hydra: engine has no ingest directory (use WithIngestDir)")
	}
	if len(batch) == 0 {
		return nil
	}
	if err := core.Canceled(ctx); err != nil {
		return err
	}
	sl := e.coll.File.SeriesLen()
	values := make([]float32, 0, len(batch)*sl)
	for i, s := range batch {
		if len(s) != sl {
			return fmt.Errorf("hydra: append series %d has length %d, collection length %d", i, len(s), sl)
		}
		values = append(values, s...)
	}
	if err := checkFinite(values, sl, "append series"); err != nil {
		return err
	}
	// Normalize the copies before logging, so the bytes the log replays are
	// the bytes the arena holds — replay cannot drift from the live apply.
	for i := 0; i < len(batch); i++ {
		series.Series(values[i*sl : (i+1)*sl]).ZNormalize()
	}

	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.log == nil {
		return fmt.Errorf("hydra: ingest log closed")
	}
	if st.poisoned != nil {
		return st.poisoned
	}
	firstSeq := uint64(e.coll.File.Len())
	prevSize := st.log.Size()
	if err := st.log.Append(firstSeq, values); err != nil {
		return err
	}
	st.mu.Lock()
	err := e.applyValues(st, values)
	st.mu.Unlock()
	if err != nil {
		// The log ran ahead of a failed apply (a method invariant was
		// violated). Un-log the record so recovery can never resurrect a
		// batch whose Append errored, and poison ingestion: the arena may
		// have grown without its index insert, so any further acked append
		// would log positions replay must refuse as a gap.
		err = fmt.Errorf("hydra: applying append: %w", err)
		st.poisoned = fmt.Errorf("hydra: ingestion disabled by earlier apply failure (restart to recover): %w", err)
		if rbErr := st.log.Rollback(prevSize, len(batch)); rbErr != nil {
			return fmt.Errorf("%w (rolling back its log record also failed: %v)", err, rbErr)
		}
		return err
	}
	st.appended.Add(int64(len(batch)))
	return nil
}

// Checkpoint folds the write-ahead log into the checkpoint log: it appends
// one record holding only the series appended since the previous checkpoint
// (several records when they exceed one record's bounds), fsyncs it, and
// only then truncates the write-ahead log — so its cost follows what is
// new, not how long the engine has been ingesting. A crash or power cut at
// any point leaves either the old checkpoint log plus the full write-ahead
// log, or the longer checkpoint log plus a write-ahead log that is full or
// empty; replay is idempotent, so all of them recover to the same engine.
// With nothing new to fold and an empty write-ahead log, Checkpoint writes
// and fsyncs nothing.
//
// Queries are not blocked: Checkpoint holds only the writer lock, which
// keeps the collection from growing while it reads the series it folds.
// Appends wait for it.
func (e *Engine) Checkpoint(ctx context.Context) error {
	st := e.ing
	if st == nil {
		return fmt.Errorf("hydra: engine has no ingest directory (use WithIngestDir)")
	}
	if err := core.Canceled(ctx); err != nil {
		return err
	}
	st.wmu.Lock()
	defer st.wmu.Unlock()
	if st.log == nil {
		return fmt.Errorf("hydra: ingest log closed")
	}
	if st.poisoned != nil {
		return st.poisoned
	}
	for total := e.coll.File.Len(); st.folded < total; {
		hi := min(total, st.folded+st.ckpt.MaxBatch())
		if err := st.ckpt.Append(uint64(st.folded), e.coll.File.PeekFlat(st.folded, hi)); err != nil {
			return fmt.Errorf("hydra: writing ingest checkpoint: %w", err)
		}
		st.folded = hi
	}
	// Only now — with every series it holds fsynced into the checkpoint
	// log — is the write-ahead log redundant.
	if st.log.Records() > 0 {
		if err := st.log.Truncate(); err != nil {
			return fmt.Errorf("hydra: truncating ingest log after checkpoint: %w", err)
		}
	}
	st.checkpoints.Add(1)
	return nil
}

// IngestStats is a point-in-time snapshot of an engine's durable-ingestion
// counters, surfaced on hydra-serve's /statusz.
type IngestStats struct {
	// Appended counts series acked by Append since the engine opened.
	Appended int64
	// Recovered counts series restored by startup recovery (checkpoint
	// tail plus log replay).
	Recovered int64
	// WALRecords and WALSeries measure the log's current lag: batches and
	// series a checkpoint has not folded yet.
	WALRecords int64
	WALSeries  int64
	// WALBytes is the log's current file size.
	WALBytes int64
	// Syncs counts fsyncs the log has issued.
	Syncs int64
	// Checkpoints counts successful Checkpoint calls since the engine
	// opened.
	Checkpoints int64
	// CheckpointRecords and CheckpointBytes measure the checkpoint log: the
	// records it holds (one per checkpoint that had something to fold) and
	// its file size.
	CheckpointRecords int64
	CheckpointBytes   int64
	// SyncPolicy names the active fsync policy ("always", "interval",
	// "off").
	SyncPolicy string
}

// IngestStats reports the engine's ingestion counters; ok is false when the
// engine was built without WithIngestDir.
func (e *Engine) IngestStats() (s IngestStats, ok bool) {
	st := e.ing
	if st == nil {
		return IngestStats{}, false
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	s = IngestStats{
		Appended:    st.appended.Load(),
		Recovered:   st.recovered.Load(),
		Checkpoints: st.checkpoints.Load(),
		SyncPolicy:  st.logMode.String(),
	}
	if st.log != nil {
		s.WALRecords = st.log.Records()
		s.WALSeries = st.log.Series()
		s.WALBytes = st.log.Size()
		s.Syncs = st.log.Syncs()
		s.CheckpointRecords = st.ckpt.Records()
		s.CheckpointBytes = st.ckpt.Size()
	}
	return s, true
}

// Close releases the engine's durable-ingestion resources: the write-ahead
// log is synced (under any policy but SyncOff) and both logs' file handles
// closed.
// Engines without WithIngestDir hold memory only and Close is a nil no-op —
// the historical "engines have no Close" contract still holds for them.
// After Close, Append and Checkpoint fail; queries keep working. Close is
// idempotent.
func (e *Engine) Close() error {
	st := e.ing
	if st == nil {
		return nil
	}
	st.wmu.Lock()
	defer st.wmu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.log == nil {
		return nil
	}
	err := st.log.Close()
	if cerr := st.ckpt.Close(); err == nil {
		err = cerr
	}
	st.log = nil
	return err
}
