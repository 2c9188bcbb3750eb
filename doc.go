// Package hydra is an exact data series similarity search library — and a
// complete Go reproduction of "The Lernaean Hydra of Data Series
// Similarity Search: An Experimental Evaluation of the State of the Art"
// (Echihabi, Zoumpatianos, Palpanas, Benbrahim; PVLDB 12(2), 2018): the
// ten exact whole-matching similarity search methods the paper evaluates,
// every summarization technique they build on, the measurement framework,
// and an experiment harness that regenerates every figure and table of the
// paper's evaluation section.
//
// This package is the public API; everything under internal/ is engine
// room. An Engine binds one method (a scan or a built index) to one
// collection:
//
//	ds, err := hydra.Generate("synthetic", 100_000, 256, 42)
//	engine, err := hydra.BuildIndex(ctx, "DSTree", hydra.WithData(ds))
//	matches, err := engine.Query(ctx, q, 10)
//
// Open returns the zero-setup scan engine, BuildIndex constructs any
// registered method (Methods lists them; WithIndexDir adds a transparent
// snapshot cache), LoadIndex restores a snapshot written by
// Engine.SaveIndex. QueryBatch fans a batch out across workers with
// isolated per-query failures; QueryStream delivers best-so-far progress
// before the exact answer. One functional-options set (WithWorkers,
// WithDevice, WithLeafSize, ...) configures both the library and every
// CLI; cmd/hydra-serve is an HTTP front end built only on this surface.
// WithShard restricts an engine to one contiguous slice of the collection
// and Gather merges per-shard answers back into the exact global top-k,
// which is what hydra-serve's coordinator mode scatter-gathers over HTTP.
// Start with README.md and examples/quickstart; ARCHITECTURE.md maps the
// layers and interfaces.
//
// # Cancellation contract
//
// Every query path takes a context.Context and honors it cooperatively at
// block granularity: scan loops poll once per core.CancelBlock (1024)
// candidates, best-first tree traversals poll once per visited node, MASS
// polls per convolution chunk, Stepwise per filter level. A cancelled (or
// deadline-expired) query returns ctx.Err() within one block of work. The
// polls read the context and nothing else, so a query that runs to
// completion is bit-identical to the same query under
// context.Background(); and since queries only read built state, a
// cancelled engine is immediately reusable — the next query answers
// exactly. Index construction is not cooperatively cancellable; BuildIndex
// checks its context only between construction phases.
//
// # Partial answers and failure semantics
//
// The failure surface is typed and small. Every error an engine returns is
// a context error passed through, one of the sentinels in errors.go
// (matched with errors.Is: the ErrSnapshot* family, ErrSnapshotMismatch,
// ErrUnknownMethod, ErrWorkerPanic, ErrQueryPanic), or an input-validation
// error naming the bad argument. Values must be finite: every query entry
// point, NewDataset, OpenDataset, NewWorkload, OpenWorkload and Append
// refuse a NaN or an infinity with that error, before the query runs or
// the row is stored or logged (cmd/hydra-serve answers 400).
//
// WithPartialOnDeadline opts a query path into graceful degradation: when
// a context deadline expires mid-query, Query and QueryWithStats return
// the best-so-far k-NN candidates with QueryStats.Partial set and a nil
// error, instead of context.DeadlineExceeded and nothing; QueryBatch
// answers each query that way, and QueryStream ends with that answer as
// its terminal event. All four share one query body, so they agree. For scan methods
// the partial answer is bit-exactly the best-so-far heap the streaming
// path reported up to the expiry; ng-approximate index methods fall back
// to their approximate descent's answer; other methods degrade to an empty
// partial result. The contract's edges: a query that completes is never
// marked partial and answers bit-identically to the same query without the
// option; explicit cancellation (context.Canceled) still fails, because
// the caller walked away; and the stats of a partial answer cover exactly
// the work performed. cmd/hydra-serve surfaces the same contract as a
// "partial":true field on 200 responses (the -partial flag).
//
// Failures are contained at every boundary where one query could harm
// another. A panic in a scan goroutine (the caller's or a helper's) is
// recovered at that goroutine and fails only that query, typed
// ErrWorkerPanic; a panicking query
// inside QueryBatch fails its own slot (ErrQueryPanic) while sibling
// queries answer; QueryStream converts a panic into a terminal Err event.
// Engines hold no per-query mutable state, so after any recovered failure
// — including every fault the internal faultpoint framework can inject —
// the engine keeps answering bit-identically (the conformance suite in
// faults_test.go pins this under the race detector).
//
// LoadIndex classifies snapshot failures rather than giving up: transient
// read errors are retried with backoff (3 attempts), corrupt
// files are quarantined aside as *.quarantined with the original path
// freed, and WithRebuildFallback replaces any unloadable snapshot with a
// fresh build that reseeds the file. IsCorruptSnapshot distinguishes
// damage (quarantine + rebuild) from version skew and dataset mismatch
// (the file is fine, the context is wrong).
//
// # Approximate queries
//
// Five methods — ADS+, DSTree, iSAX2+, SFA and VA+file — answer a lattice
// of approximate query modes beside their exact search, selected per
// engine with WithApproxMode and reported per query in QueryStats:
//
//   - "exact" (the default): the unchanged exact search. Engines without
//     an approximate mode behave exactly as before this option existed.
//   - "ng": the ng-approximate answer (the paper's "no-guarantees"
//     descent) — one root-to-leaf visit of the query's own path, the same
//     answer the QueryStream head start delivers. Fastest, no quality
//     bound.
//   - "delta-eps": δ-ε-approximate search. The traversal prunes against
//     bound/(1+ε) — never discarding any candidate within (1+ε) of the
//     best-so-far — and, for δ < 1, additionally stops early once the
//     current answer is within (1+ε) of a stopping radius estimated so
//     that the returned k-th distance is within (1+ε) of the true k-th
//     distance with probability at least δ (WithEpsilon, WithDelta;
//     ε=0 and δ=1 degenerate to exact search, bit-identically).
//   - "budget": exact best-first search stopped early at a node budget
//     (WithNodeBudget); with no budget set it IS exact search. Every mode
//     is defined by effort and guarantee, never by wall clock, so its
//     answers are deterministic.
//
// QueryStats carries the audit trail: Mode is the mode that answered,
// NodesVisited counts index nodes/leaves visited (in every mode, so
// exact-vs-approximate work ratios are computable), Epsilon/Delta echo
// the δ-ε parameters, and EarlyStop records which stop fired ("delta",
// "nodes", or empty). Exact answers are bit-identical across all
// modes' machinery: an engine in mode "exact" answers exactly what the
// pre-option engine answered.
//
// Engine.WithQueryOptions derives a cheap per-request engine view over the
// same built index with different query-time options — the mechanism
// cmd/hydra-serve uses to honor a per-request "mode" field. Methods
// without approximate support fail non-exact queries with
// ErrApproxUnsupported (hydra-serve maps it to 400). The conformance
// suite in approx_test.go pins the lattice: degenerate-spec equivalence,
// ng ≡ the method's own first-leaf search, measured recall ≥ δ on
// controlled workloads, and monotone pruning in ε.
//
// # Motif discovery: the matrix profile
//
// Beside k-NN over a collection, an engine whose collection holds exactly
// one long series answers self-join workloads: Engine.MatrixProfile
// computes the series' matrix profile (for every length-m window, the
// z-normalized Euclidean distance to its nearest non-trivial neighbor),
// and Engine.Motifs / Engine.Discords extract the top repeated pairs and
// the top anomalies from it (WithTopK, default 3). The computation is
// STOMP restructured along profile diagonals — O(n·m), one O(m) seed dot
// per diagonal plus an O(1) sliding dot-product recurrence per cell — and
// spreads its diagonal chunks over the idle cores up to the WithWorkers
// cap; every cap returns a Float64bits-identical profile, because
// per-goroutine partials hold squared distances and fold through an
// order-independent lexicographic min before the single sqrt pass. Windows closer than the
// exclusion zone (WithExclusionZone, default m/4) are trivial matches of
// themselves and never compared. Constant windows follow the
// series.ZNormalize convention: two flat windows are at distance 0, a
// flat window against anything else at sqrt(m). Engines over multi-series
// collections fail these calls with ErrProfileUnsupported;
// GenerateLongWalk (hydra-gen -long) emits a single planted long walk to
// profile. Cancellation follows the engine-wide contract above.
// cmd/hydra-motif is the CLI; hydra-serve answers POST /motif.
//
// # Persistence
//
// Tree-backed methods implement core.Persistable: their built state saves
// to a versioned, checksummed snapshot (internal/persist; wire format in
// docs/FORMAT.md) and reattaches to a collection later. A loaded index
// answers KNN bit-identically to the instance that was saved — IDs, float64
// distances, pruning ratios and simulated I/O counts, serially and under
// the concurrent paths below — so index construction becomes a pay-once
// cost (hydra-build / hydra-query -index / hydra-bench -index), the
// build-once/query-many workflow of the paper's Figures 5-8.
//
// # Data layout and allocation model
//
// The raw data of a collection lives in one flat, 64-byte-aligned float32
// arena (storage.NewArena), series stored back-to-back exactly as the
// simulated disk lays them out; storage.SeriesFile.Peek and the reads of a
// storage.Cursor hand out capped subslice views of it. Views are read-only — mutating one
// corrupts the arena for every reader; Clone first (the aliasing contract
// is specified in the internal/series package docs). Index summaries follow
// the same discipline: iSAX words and PAA vectors, SFA features and words,
// and VA+ codes are contiguous parallel arrays scored many candidates per call by
// batched lower-bound kernels (sax.MinDistFullCardBatch,
// vaq.Quantizer.LowerBoundBatch — both streaming segment-major transposed
// code copies), and DSTree nodes keep their EAPCA synopsis in one
// contiguous block scored pairwise per split.
//
// # Kernel layer
//
// The innermost loops — exact distance with blocked early abandoning, the
// same with the query's 16-element blocks reordered by decreasing energy
// (one cache line per block, contiguous loads, no gather), batched
// code-table bounds (eight candidates a group, one load per dimension for
// their code bytes, sums held in registers — no gather either), and
// interval/region bounds — live in internal/simd as hand-written amd64
// assembly with a portable Go twin, selected once at startup by CPU-feature
// detection (HYDRA_SIMD=off forces the Go backend; the purego build tag
// compiles the assembly out). The two backends are bit-identical on every
// input, so answers never depend on the machine that computed them;
// internal/simd's package docs specify the contract and the recipe for
// adding kernels, and hydra-bench records the selected backend with every
// measurement.
//
// Steady-state exact queries do not allocate beyond the returned matches:
// every method draws its per-query state (reordered query, query summary,
// candidate-bound buffer, k-NN heap backing, traversal heap) from a pooled
// core.Scratch (core.ScratchPool, sync.Pool-backed), and the CI gate
// TestQueryAllocBudget pins the pooled paths to at most 2 heap allocations
// per query. Batched bounds and pooled scratch change no answer: values,
// visit decisions, per-query stats and I/O counts are bit-identical to the
// per-candidate formulation.
//
// # Concurrency model
//
// The suite distinguishes two axes of parallelism, both layered on top of
// the paper's serial semantics without changing any answer:
//
//   - Intra-query: one claim loop (core.Claim) runs the UCR-Suite scan
//     (core.ScanKNN) and the matrix profile. The calling goroutine and up
//     to min(cap, GOMAXPROCS)−1 helpers claim chunks of the pass from one
//     atomic counter — CancelBlock rows of the scan, scanned against a
//     lock-free shared best-so-far bound (core.BestSoFar, atomic float64
//     bits, the MESSI coordination scheme) — and a helper that finds no
//     chunk left exits. On a busy process a query therefore costs the
//     serial pass; on an idle one it uses the free cores. WithWorkers sets
//     the cap: 0 (the default) or less is every core, 1 the paper's
//     serial pass. No helper outlives its query, and starting one
//     allocates nothing.
//   - Inter-query: Engine.QueryBatch answers a batch on up to
//     WithBatchWorkers goroutines that pull queries from one atomic cursor
//     and share the one built method; results stay aligned with the batch,
//     so the answer does not depend on scheduling.
//
// Sharing rules. A query's reads go through its own storage.Cursor, made
// on its stack: the cursor pins the file's published extent, keeps the
// query's sequential position and counts its accesses in plain fields, and
// the query flushes that record to the collection's atomic
// storage.Counters once when it ends (a scan's helpers read the pinned
// rows charge-free, and the query charges the rows read as one sequential
// pass). Concurrent queries therefore share no cursor and no counter on
// the per-series read path, every query's QueryStats.IO holds exactly its
// own accesses under any concurrency, and the Counters still sum every
// query's and every build's charges. Built
// methods are read-only during queries and safe for concurrent KNN calls
// on one shared collection (ADS+ guards its adaptive leaf materialization
// with a mutex).
//
// # Determinism guarantees
//
// Parallel query answering is bit-deterministic, not merely approximately
// correct: core.ScanKNN returns the same IDs, the same float64 distances
// and the same tie-breaks (ascending ID on equal distance) as the serial
// UCR-suite scan, for every cap and schedule, and the same counters.
// Candidates that reach the result set are never early-abandoned under any
// bound in play, so their distances are full sums computed in the serial
// kernel's lane structure and reduction order, and the (distance, ID)
// top-k selection is insertion-order independent. The blocked distance
// kernels used by the scans and every index's leaf refinement
// (series.SquaredDistEABlocked, the block-reordered
// series.SquaredDistEAOrderedBlocked, whose full sums depend on the query's
// block order and on nothing else, and the scan's series.ScanRun, which
// returns that kernel's full sums for the rows of a run that pass the
// bound) agree with the scalar kernels to within 1e-9 relative error, never abandon a candidate
// the scalar kernels keep, and return bit-identical values on every SIMD
// backend (the internal/simd contract). Simulated I/O counts, pruning ratios
// and disk-access figures are exactly reproducible for every cap; only
// measured wall-clock times vary run to run. Every exact method breaks
// distance ties by ascending ID: prune predicates skip a node or member
// only when its bound exceeds the k-th distance, so an index returns the
// scan's IDs even when distances tie.
package hydra
