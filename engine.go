package hydra

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/core"
	"hydra/internal/persist"
	"hydra/internal/series"
	"hydra/internal/stats"

	// Importing the methods umbrella registers all ten similarity search
	// approaches, so every engine constructor can resolve them by name.
	_ "hydra/internal/methods"
)

// Match is one answer of a k-NN query: the matching series' position in the
// collection and its true Euclidean distance to the query.
type Match = core.Match

// QueryStats carries one query's cost counters: distance and lower-bound
// computations, series examined, simulated I/O, and CPU time. Its
// TotalTime(Device) converts the counters into simulated wall time under a
// device profile.
type QueryStats = stats.QueryStats

// BuildStats carries one index construction's (or snapshot load's) cost
// counters; FromSnapshot distinguishes pay-once builds from per-run loads.
type BuildStats = stats.BuildStats

// Engine is a queryable similarity search engine: one method (a scan or a
// built index) bound to one collection. Engines are safe for concurrent
// use — queries only read the built state — and every query path accepts a
// context honored at block granularity (see Query).
//
// Engines come from the three constructors: Open (scan over a dataset
// file), BuildIndex (construct an index method), LoadIndex (restore a
// snapshot). A read-only engine holds memory only, reclaimed by the garbage
// collector when the last reference drops; an ingesting engine
// (WithIngestDir) additionally holds its write-ahead log open and should be
// Closed when done — see Append, Checkpoint and Close.
type Engine struct {
	m      core.Method
	coll   *core.Collection
	data   *Dataset
	device Device
	build  BuildStats

	batchWorkers      int
	partialOnDeadline bool
	// workers is the engine's WithWorkers setting, retained for the work
	// the facade runs itself (matrix-profile diagonals); query-path
	// parallelism was already handed to the method factory.
	workers int
	// Shard placement (WithShard): index/count of the slice this engine
	// serves and the collection offset of its first series; count == 0 for
	// engines over a whole collection.
	shardIndex, shardCount, shardOffset int
	// spec is the engine's answering mode (WithApproxMode and friends); the
	// zero value is exact search. Per-request modes derive engines with
	// WithQueryOptions instead of mutating this.
	spec core.ApproxSpec
	// ing is the durable-ingestion state (WithIngestDir), nil on read-only
	// engines. A pointer, so engines derived with WithQueryOptions share
	// their parent's ingest pipeline and append/query exclusion.
	ing *ingestState
}

// Open opens a collection file and returns a scan engine over it: the
// UCR-Suite optimized sequential scan, ready without any build phase. Index
// methods come from BuildIndex; Open is the zero-setup entry point.
func Open(dataset string, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	if err := cfg.resolveQuerySpec(); err != nil {
		return nil, err
	}
	if dataset != "" && (cfg.data != nil || cfg.dataPath != "") {
		return nil, fmt.Errorf("hydra: Open got both a dataset path and a WithData/WithDatasetFile option")
	}
	if cfg.dataPath == "" {
		cfg.dataPath = dataset
	}
	d, err := cfg.dataset()
	if err != nil {
		return nil, err
	}
	m, err := core.New("UCR-Suite", cfg.opts)
	if err != nil {
		return nil, err
	}
	coll := core.NewCollection(d.d)
	if err := m.Build(coll); err != nil {
		return nil, err
	}
	return cfg.engine(m, coll, d, BuildStats{Finished: true})
}

// BuildIndex constructs the named method over the configured dataset
// (WithData or WithDatasetFile) and returns an engine over the built index.
// The context is checked between construction phases; cooperative
// cancellation inside a build is not supported — cancel promptness is a
// query-path guarantee.
//
// With WithIndexDir, BuildIndex first tries the snapshot cache: a matching
// snapshot is loaded instead of building (BuildStats.FromSnapshot reports
// which happened), and a fresh build is saved back to the cache.
func BuildIndex(ctx context.Context, method string, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	if err := cfg.resolveQuerySpec(); err != nil {
		return nil, err
	}
	d, err := cfg.dataset()
	if err != nil {
		return nil, err
	}
	if err := core.Canceled(ctx); err != nil {
		return nil, err
	}
	m, err := core.New(method, cfg.opts)
	if err != nil {
		return nil, err
	}
	coll := core.NewCollection(d.d)

	m, bs, err := core.CachedBuild(ctx, m, coll, cfg.cachePath(method, coll))
	if err != nil {
		return nil, fmt.Errorf("hydra: building %s: %w", method, err)
	}
	return cfg.engine(m, coll, d, bs)
}

// LoadIndex restores an index snapshot (written by Engine.SaveIndex or the
// hydra-build CLI) over the configured dataset (WithData or
// WithDatasetFile) and returns an engine over it. The snapshot names its
// own method and build options; loading verifies the collection
// fingerprint, so a snapshot never silently answers for the wrong data.
// The loaded engine answers queries bit-identically to the engine that was
// saved.
//
// Load failures are classified, not just reported: transient errors are
// retried with backoff (3 attempts), a corrupt file is quarantined
// aside (path + ".quarantined") so no later start trips over it again, and
// with WithRebuildFallback any unloadable snapshot is replaced by a fresh
// build instead of failing the start. Without the fallback the error wraps
// one of the ErrSnapshot* sentinels (see errors.go) for the caller to route
// on.
func LoadIndex(ctx context.Context, path string, opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	if err := cfg.resolveQuerySpec(); err != nil {
		return nil, err
	}
	d, err := cfg.dataset()
	if err != nil {
		return nil, err
	}
	if err := core.Canceled(ctx); err != nil {
		return nil, err
	}
	coll := core.NewCollection(d.d)
	// Startup hygiene: cap the *.quarantined files earlier corrupt loads
	// left beside this snapshot, so repeated corruption cannot accumulate
	// into a full disk (age- and count-bounded; see persist.SweepQuarantined).
	persist.SweepQuarantined(filepath.Dir(path), 0, 0)
	m, bs, err := loadSnapshot(ctx, path, coll)
	if err != nil {
		if cfg.rebuildMethod != "" {
			return cfg.rebuildFallback(ctx, path, d, err)
		}
		return nil, fmt.Errorf("hydra: loading %s: %w", path, err)
	}
	return cfg.engine(m, coll, d, bs)
}

// defaultSnapshotRetries is the total attempt count of a snapshot load.
const defaultSnapshotRetries = 3

// snapshotBackoff is the wait before the first retry; it doubles per
// attempt, so the schedule is 5ms then 10ms.
const snapshotBackoff = 5 * time.Millisecond

// loadSnapshot opens and decodes a snapshot with the resilience policy:
// transient failures (anything not known-permanent — e.g. a flaky
// filesystem read) are retried up to the attempt budget with doubling
// backoff honoring ctx; corruption, version skew, dataset mismatch, unknown
// method, and a missing file fail immediately. A final corrupt error
// quarantines the file aside before returning.
func loadSnapshot(ctx context.Context, path string, coll *core.Collection) (core.Persistable, BuildStats, error) {
	backoff := snapshotBackoff
	var err error
	for a := 0; a < defaultSnapshotRetries; a++ {
		if a > 0 {
			select {
			case <-ctx.Done():
				return nil, BuildStats{}, ctx.Err()
			case <-time.After(backoff):
			}
			backoff *= 2
		}
		var m core.Persistable
		var bs BuildStats
		m, bs, err = openSnapshot(path, coll)
		if err == nil {
			return m, bs, nil
		}
		if permanentLoadError(err) {
			break
		}
	}
	if IsCorruptSnapshot(err) {
		if qpath, qerr := persist.Quarantine(path); qerr == nil {
			err = fmt.Errorf("%w (quarantined to %s)", err, qpath)
			persist.SweepQuarantined(filepath.Dir(path), 0, 0)
		}
	}
	return nil, BuildStats{}, err
}

// openSnapshot is one load attempt: open, decode, attach, close.
func openSnapshot(path string, coll *core.Collection) (core.Persistable, BuildStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, BuildStats{}, err
	}
	defer f.Close()
	return core.LoadIndexInstrumented(f, coll)
}

// rebuildFallback replaces an unloadable snapshot with a fresh build of the
// configured fallback method over a clean collection (failed decode
// attempts may have charged counters on the first one), then best-effort
// re-saves the snapshot so the next start loads instead of building.
func (c *config) rebuildFallback(ctx context.Context, path string, d *Dataset, loadErr error) (*Engine, error) {
	if err := core.Canceled(ctx); err != nil {
		return nil, err
	}
	m, err := core.New(c.rebuildMethod, c.opts)
	if err != nil {
		return nil, fmt.Errorf("hydra: rebuild fallback after snapshot failure (%v): %w", loadErr, err)
	}
	coll := core.NewCollection(d.d)
	bs, err := core.BuildInstrumented(m, coll)
	if err != nil {
		return nil, fmt.Errorf("hydra: rebuilding %s after snapshot failure (%v): %w", c.rebuildMethod, loadErr, err)
	}
	if p, ok := m.(core.Persistable); ok {
		// Reseeding the snapshot is best effort: a read-only index dir must
		// not fail a start the rebuild just saved.
		_ = core.SaveSnapshotFile(p, coll, path)
	}
	return c.engine(m, coll, d, bs)
}

func (c *config) engine(m core.Method, coll *core.Collection, d *Dataset, bs BuildStats) (*Engine, error) {
	// Workers was already handed to the method factory through core.Options.
	e := &Engine{
		m: m, coll: coll, data: d,
		device:            c.device,
		build:             bs,
		batchWorkers:      c.resolvedBatchWorkers(),
		partialOnDeadline: c.partialOnDeadline,
		workers:           c.opts.Workers,
		spec:              c.spec,
		shardIndex:        c.shardIndex,
		shardCount:        c.shardCount,
		shardOffset:       c.shardOffset,
	}
	if c.ingestDir != "" {
		// WithIngestDir: attach the WAL and replay any crash-interrupted
		// tail before the engine answers its first query.
		if err := e.enableIngest(c); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// cachePath derives the snapshot-cache entry for (method, collection,
// options) through the shared core helper — the same key format
// hydra-bench uses, so the two cache directories are interchangeable.
func (c *config) cachePath(method string, coll *core.Collection) string {
	return core.SnapshotCachePath(c.indexDir, method, coll, c.opts)
}

// SnapshotName maps a method name to its conventional snapshot file name
// ("VA+file" → "va-file.hydx") — hydra-build's multi-method output layout
// and the WithIndexDir cache share the same stems.
func SnapshotName(method string) string {
	return persist.FileStem(method) + persist.SnapshotExt
}

// SaveIndex writes the engine's built index as a versioned snapshot that
// LoadIndex (or hydra-query -index) can restore, with write-then-rename so
// a crash cannot leave a truncated file. It fails for methods without
// build state (see PersistableMethods).
func (e *Engine) SaveIndex(path string) error {
	p, ok := e.m.(core.Persistable)
	if !ok {
		return fmt.Errorf("hydra: method %s does not support snapshots", e.m.Name())
	}
	// Exclude concurrent appends: a snapshot captures a batch boundary.
	if ing := e.ing; ing != nil {
		ing.mu.RLock()
		defer ing.mu.RUnlock()
	}
	return core.SaveSnapshotFile(p, e.coll, path)
}

// Method returns the engine's method name (as used in the paper).
func (e *Engine) Method() string { return e.m.Name() }

// Len returns the number of series in the engine's collection.
func (e *Engine) Len() int { return e.coll.File.Len() }

// SeriesLen returns the collection's series length — the length every
// query must have.
func (e *Engine) SeriesLen() int { return e.coll.File.SeriesLen() }

// Device returns the engine's simulated disk profile.
func (e *Engine) Device() Device { return e.device }

// ShardInfo reports the engine's placement in a sharded collection
// (WithShard): its shard index, the shard count, and the collection offset
// of its first series — the value that maps shard-local match IDs back to
// full-collection positions. sharded is false for engines over a whole
// collection (all other returns are then zero).
func (e *Engine) ShardInfo() (index, count, offset int, sharded bool) {
	return e.shardIndex, e.shardCount, e.shardOffset, e.shardCount > 0
}

// BuildStats returns the cost of constructing (or loading) the engine's
// index; zero-valued for scan engines, which have no build phase.
func (e *Engine) BuildStats() BuildStats { return e.build }

// Query answers a k-nearest-neighbors query: the k collection series
// closest to q in Euclidean distance, sorted by ascending distance (ties by
// ascending ID). By default the answer is exact; an engine configured with
// WithApproxMode answers in that mode instead, trading answer quality for
// traversal work under the mode's guarantee (see the option's doc).
//
// Cancellation: the query polls ctx at block granularity and returns
// ctx.Err() within one block of work after a cancel or deadline — the
// engine stays consistent and immediately reusable. Queries that complete
// are bit-identical to the same query under context.Background().
//
// The steady-state query path does not allocate beyond the returned
// matches (per-query scratch is pooled), so a serving loop can run it at
// full rate without GC pressure.
func (e *Engine) Query(ctx context.Context, q []float32, k int) ([]Match, error) {
	matches, _, err := e.QueryWithStats(ctx, q, k)
	return matches, err
}

// QueryWithStats is Query plus the paper's per-query cost counters
// (distance calculations, pruning, simulated I/O, CPU time).
//
// Under WithPartialOnDeadline, a query whose context deadline expires
// mid-run returns the best-so-far candidates with Stats.Partial set and a
// nil error instead of context.DeadlineExceeded (see the option's doc for
// the exact contract).
//
// On a non-exact engine (WithApproxMode), Stats reports the answering mode,
// its guarantee parameters, the nodes visited, and which early stop (if
// any) ended the traversal. Approximate modes take precedence over
// WithPartialOnDeadline's degraded path — a budgeted query is already its
// own degraded mode; use WithNodeBudget rather than a context deadline to
// bound an approximate query's work.
func (e *Engine) QueryWithStats(ctx context.Context, q []float32, k int) ([]Match, QueryStats, error) {
	return e.query(ctx, q, k, nil)
}

// query is the one query body behind Query, QueryWithStats, QueryBatch and
// QueryStream. It holds the ingest read lock for the whole query, so a
// query sees whole appended batches or none and a streamed head start and
// its exact refinement answer over the same collection extent. A non-exact
// engine answers in its own mode. Otherwise, when progress is non-nil (the
// stream) or WithPartialOnDeadline meets a context deadline, the query runs
// through whatever best-so-far machinery the method offers:
//
//   - Streaming methods (the scans): every emission that tightens the
//     best-so-far goes to progress and into a k-NN fold; on deadline expiry
//     the fold holds exactly the best-so-far heap the stream reported,
//     bit-identically.
//   - ng-approximate index methods: the approximate descent (one
//     root-to-leaf path, cheap) runs once, first, as a head start reported
//     to progress and as the answer floor, then the exact query; on expiry
//     the descent's answer is returned. The head start charges its own
//     simulated I/O.
//   - Everything else degrades to an empty partial answer on expiry.
//
// Queries that complete return the exact answer, bit-identical to a query
// without the option or the stream. Explicit cancellation still fails with
// ctx.Err().
func (e *Engine) query(ctx context.Context, q []float32, k int, progress func(StreamUpdate)) ([]Match, QueryStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := checkFinite(q, 0, "query"); err != nil {
		return nil, QueryStats{}, err
	}
	if ing := e.ing; ing != nil {
		ing.mu.RLock()
		defer ing.mu.RUnlock()
	}
	sq := series.Series(q)
	if e.spec.Mode != core.ModeExact {
		return core.RunQueryApprox(ctx, e.m, e.coll, sq, k, e.spec)
	}
	partial := false
	if e.partialOnDeadline {
		_, partial = ctx.Deadline()
	}
	if !partial && progress == nil {
		return core.RunQuery(ctx, e.m, e.coll, sq, k)
	}
	var (
		matches, floor []Match // floor: the partial answer on expiry
		qs             QueryStats
		err            error
		fold           *bestFold
	)
	switch m := e.m.(type) {
	case core.KNNStreamer:
		if partial {
			fold = newBestFold(k)
		}
		matches, qs, err = core.RunQueryStream(ctx, m, e.coll, sq, k, func(b Match) {
			if fold != nil {
				fold.add(b)
			}
			if progress != nil {
				progress(StreamUpdate{Best: b})
			}
		})
	case core.ApproxSearcher:
		var aqs QueryStats
		if floor, aqs, err = m.KNNApprox(ctx, sq, k, core.ApproxSpec{Mode: core.ModeNG}); err != nil {
			floor, qs = nil, aqs
			break
		}
		if progress != nil && len(floor) > 0 {
			progress(StreamUpdate{Best: floor[0], Mode: core.ModeNG.String()})
		}
		if matches, qs, err = core.RunQuery(ctx, e.m, e.coll, sq, k); errors.Is(err, context.DeadlineExceeded) {
			qs = aqs // a partial answer reports the work behind its floor
		}
	default:
		matches, qs, err = core.RunQuery(ctx, e.m, e.coll, sq, k)
	}
	if partial && errors.Is(err, context.DeadlineExceeded) {
		if fold != nil {
			floor = fold.results()
		}
		qs.Partial = true
		return floor, qs, nil
	}
	return matches, qs, err
}

// guardedQuery is query behind the panic boundary QueryBatch and
// QueryStream share: a panicking query (a method bug, or an armed
// query/panic faultpoint) becomes that query's own ErrQueryPanic instead of
// unwinding a batch worker or an unattended stream goroutine and taking
// sibling queries — or the process — down with it. Queries only read the
// built index, so a recovered panic cannot have corrupted engine state.
func (e *Engine) guardedQuery(ctx context.Context, q []float32, k int, progress func(StreamUpdate)) (matches []Match, qs QueryStats, err error) {
	defer func() {
		if p := recover(); p != nil {
			matches, err = nil, fmt.Errorf("%w: %v", ErrQueryPanic, p)
		}
	}()
	return e.query(ctx, q, k, progress)
}

// WithQueryOptions derives an engine that shares this engine's built index
// and collection but answers queries under different query-time options —
// the per-request mode mechanism behind hydra-serve's request fields.
// Deriving is cheap (no data is copied) and the derived engine is as safe
// for concurrent use as its parent; both stay independently usable.
//
// Only query-time options take effect: the approximate-mode set
// (WithApproxMode, WithEpsilon, WithDelta, WithNodeBudget),
// WithBatchWorkers, WithDevice, and WithPartialOnDeadline. The
// approximation mode is specified entirely by the given options — it does
// not inherit the parent's mode, so an empty option list derives an exact
// engine. Build-time options (dataset, method parameters, snapshot policy)
// are ignored: the index is already built.
func (e *Engine) WithQueryOptions(opts ...Option) (*Engine, error) {
	cfg := defaultConfig()
	cfg.device = e.device
	cfg.batchWorkers = e.batchWorkers
	cfg.partialOnDeadline = e.partialOnDeadline
	cfg.apply(opts)
	if err := cfg.resolveQuerySpec(); err != nil {
		return nil, err
	}
	d := *e
	d.device = cfg.device
	d.batchWorkers = cfg.resolvedBatchWorkers()
	d.partialOnDeadline = cfg.partialOnDeadline
	d.spec = cfg.spec
	return &d, nil
}

// bestFold accumulates stream emissions into a k-NN heap so an expired
// query can answer with its progress. Emissions arrive concurrently from
// scan workers; the mutex makes the fold safe, and the deterministic
// (distance, then ascending ID) heap makes the folded top-k independent of
// arrival order.
type bestFold struct {
	mu  sync.Mutex
	set *core.KNNSet
}

func newBestFold(k int) *bestFold {
	return &bestFold{set: core.NewKNNSet(k)}
}

// add folds one emitted candidate. The heap stores squared distances, the
// stream reports true ones; squaring here and square-rooting in results is
// exact round-tripping under IEEE-754 (sqrt(x·x) == |x| in round-to-nearest
// absent overflow), so folded distances are bit-identical to the stream's.
func (f *bestFold) add(m Match) {
	f.mu.Lock()
	f.set.Add(m.ID, m.Dist*m.Dist)
	f.mu.Unlock()
}

// results returns the folded best-so-far, sorted like every exact answer.
func (f *bestFold) results() []Match {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.set.Results()
}

// QueryBatch answers a batch of queries concurrently on up to
// WithBatchWorkers workers, amortizing per-query scratch through the
// engine's pools. The returned slice is aligned with qs.
//
// Partial-failure semantics (pinned by the public test suite): queries are
// isolated — one query's failure does not abandon its siblings — and
// results[i] is non-nil exactly for the queries that succeeded. The
// returned error is the first failure by query index (nil when everything
// succeeded); QueryBatchErrors reports every query's own error. Cancelling
// ctx stops the batch promptly: in-flight queries return ctx.Err() within
// one block, queued queries never start, and the batch reports the context
// error.
func (e *Engine) QueryBatch(ctx context.Context, qs [][]float32, k int) ([][]Match, error) {
	results, errs := e.QueryBatchErrors(ctx, qs, k)
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// QueryBatchErrors is QueryBatch with per-query error attribution: both
// returned slices are aligned with qs, and exactly one of results[i],
// errs[i] is non-nil for each query — so a serving layer can tell a
// malformed query (fix the input) from a deadline overrun (retry) within
// one batch.
func (e *Engine) QueryBatchErrors(ctx context.Context, qs [][]float32, k int) ([][]Match, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([][]Match, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return results, errs
	}
	workers := e.batchWorkers
	if workers > len(qs) {
		workers = len(qs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				qi := int(next.Add(1)) - 1
				if qi >= len(qs) {
					return
				}
				if err := core.Canceled(ctx); err != nil {
					errs[qi] = err
					continue // mark every remaining claimed query cancelled
				}
				matches, _, err := e.guardedQuery(ctx, qs[qi], k, nil)
				if err != nil {
					errs[qi] = err
					continue
				}
				results[qi] = matches
			}
		}()
	}
	wg.Wait()
	return results, errs
}
