package hydra

import (
	"fmt"
	"runtime"
	"strings"

	"hydra/internal/core"
	"hydra/internal/methods"
	"hydra/internal/simd"
	"hydra/internal/storage"
)

// Device is a simulated disk profile: counted I/O operations are converted
// into deterministic time using its seek latency and throughput (the
// paper's §4.2 cost model).
type Device = storage.DeviceProfile

// The two device profiles of the paper's evaluation machines.
var (
	// HDD models the paper's spinning-disk server (RAID0: fast sequential
	// transfers, expensive seeks).
	HDD = storage.HDD
	// SSD models the paper's flash server (slower sequential transfers,
	// near-free seeks).
	SSD = storage.SSD
)

// DeviceByName resolves "hdd" or "ssd" (case-insensitive) to its profile —
// the flag-to-option bridge shared by the CLIs.
func DeviceByName(name string) (Device, error) {
	switch strings.ToLower(name) {
	case "", "hdd":
		return HDD, nil
	case "ssd":
		return SSD, nil
	}
	return Device{}, fmt.Errorf("hydra: unknown device profile %q (hdd|ssd)", name)
}

// config is the resolved functional-option set. One config drives every
// constructor (Open, BuildIndex, LoadIndex), so the library and all CLIs
// configure engines the same way.
type config struct {
	data         *Dataset
	dataPath     string
	device       Device
	batchWorkers int
	indexDir     string
	opts         core.Options

	partialOnDeadline bool
	rebuildMethod     string

	// Matrix-profile options (WithExclusionZone / WithTopK). exclusionSet
	// distinguishes an explicit zero (exclude only the self-match) from the
	// unset default (m/4).
	exclusionZone int
	exclusionSet  bool
	topK          int

	// Durable ingestion (WithIngestDir / WithWALSync): the directory the
	// WAL and checkpoints live in, and the fsync policy spelled as the
	// -wal-sync flag would be ("always", "off", or an interval duration).
	ingestDir string
	walSync   string

	// Shard slicing (WithShard): the engine serves the shardIndex-th of
	// shardCount contiguous partitions of the configured dataset;
	// shardOffset records where that slice starts, resolved by dataset().
	shardIndex  int
	shardCount  int
	shardOffset int

	// Approximate-query defaults (WithApproxMode and friends). The mode is
	// kept as its wire name until approxSpec resolves it, so constructors
	// can report a bad name as their own error.
	approxMode string
	epsilon    float64
	delta      float64
	nodeBudget int
	// spec is the resolved form of the four fields above; set by
	// resolveQuerySpec before any engine is constructed.
	spec core.ApproxSpec
}

// Option configures an Engine under construction. Options are the one
// configuration surface of the public API: the CLIs parse their flags into
// the same []Option a library caller would pass.
type Option func(*config)

func defaultConfig() config {
	return config{device: HDD}
}

func (c *config) apply(opts []Option) {
	for _, o := range opts {
		o(c)
	}
}

// dataset resolves the configured dataset: an in-memory handle if one was
// attached with WithData, otherwise the file named by WithDatasetFile —
// sliced down to the configured shard (WithShard) when one is set.
func (c *config) dataset() (*Dataset, error) {
	d := c.data
	if d == nil {
		if c.dataPath == "" {
			return nil, fmt.Errorf("hydra: no dataset configured (use WithData or WithDatasetFile)")
		}
		var err error
		if d, err = OpenDataset(c.dataPath); err != nil {
			return nil, err
		}
	}
	if c.shardCount > 0 {
		shard, offset, err := d.Shard(c.shardIndex, c.shardCount)
		if err != nil {
			return nil, err
		}
		c.shardOffset = offset
		return shard, nil
	}
	return d, nil
}

func (c *config) resolvedBatchWorkers() int {
	if c.batchWorkers > 0 {
		return c.batchWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// WithData attaches an in-memory dataset to BuildIndex or LoadIndex.
func WithData(d *Dataset) Option { return func(c *config) { c.data = d } }

// WithDatasetFile names the collection file (hydra-gen format) BuildIndex
// or LoadIndex should open.
func WithDatasetFile(path string) Option { return func(c *config) { c.dataPath = path } }

// WithWorkers sets intra-query scan parallelism for methods that support it
// (the UCR-Suite scan): 0 or 1 is the paper's serial execution, larger
// values fan each query out over that many shards, negative selects
// GOMAXPROCS. Answers are bit-identical for every setting.
func WithWorkers(n int) Option { return func(c *config) { c.opts.Workers = n } }

// WithExclusionZone sets the matrix-profile trivial-match radius: windows
// within z positions of each other never count as neighbors (or motif/
// discord candidates) of one another. Unset selects the conventional m/4
// for window length m; an explicit 0 excludes only the self-match. Only
// meaningful on the profile calls (Engine.MatrixProfile, Motifs, Discords).
func WithExclusionZone(z int) Option {
	return func(c *config) { c.exclusionZone, c.exclusionSet = z, true }
}

// WithTopK sets how many motif pairs or discords Engine.Motifs and
// Engine.Discords extract (0 = the default 3).
func WithTopK(k int) Option { return func(c *config) { c.topK = k } }

// resolvedTopK is the extraction count WithTopK configured, defaulted.
func (c *config) resolvedTopK() int {
	if c.topK > 0 {
		return c.topK
	}
	return 3
}

// WithShard restricts the engine to the index-th of count contiguous
// partitions of the configured dataset (the Dataset.Shard split, identical to
// the parallel scan's per-worker sharding) — the building block of
// scatter-gather serving: N processes each build or scan one shard, and a
// coordinator merges their answers with Gather. The shard view aliases the
// dataset's arena, so slicing costs no copies.
//
// A shard engine answers with shard-local IDs; Engine.ShardInfo reports the
// offset that maps them back to full-collection positions (hydra-serve's
// shard mode adds it on the wire). Snapshots built over a shard carry the
// shard's own fingerprint, so a shard never silently loads another shard's
// index.
func WithShard(index, count int) Option {
	return func(c *config) { c.shardIndex, c.shardCount = index, count }
}

// WithBatchWorkers caps how many queries of one QueryBatch run
// concurrently. 0 (the default) selects GOMAXPROCS.
func WithBatchWorkers(n int) Option { return func(c *config) { c.batchWorkers = n } }

// WithDevice selects the simulated disk profile used when reporting
// simulated query and build times (HDD by default).
func WithDevice(d Device) Option { return func(c *config) { c.device = d } }

// WithIndexDir enables the snapshot cache: BuildIndex loads a matching
// snapshot from dir when one exists and otherwise builds and saves one
// (write-then-rename; a damaged entry is rebuilt, not trusted). The cache
// key covers the collection fingerprint and every build-relevant option, so
// changed data or parameters miss instead of loading a wrong index.
func WithIndexDir(dir string) Option { return func(c *config) { c.indexDir = dir } }

// WithIngestDir enables durable live ingestion: Engine.Append logs every
// batch to a write-ahead log in dir before applying it, Engine.Checkpoint
// folds the log into an append-only checkpoint log there, and the
// constructors replay checkpoint log + write-ahead log on startup, so an
// acked append survives kill -9 at any byte boundary. A directory written
// over other data, or damaged beyond a torn tail, fails the constructor
// (ErrIngestMismatch, ErrIngestCorrupt) and is left untouched. The method must support incremental inserts (UCR-Suite,
// ADS+, iSAX2+, DSTree — see ErrIngestUnsupported) and the engine must not
// be sharded. See ARCHITECTURE.md §10 for the durability contract.
func WithIngestDir(dir string) Option { return func(c *config) { c.ingestDir = dir } }

// WithWALSync sets the write-ahead log's fsync policy: "always" (the
// default — every acked append is on disk), "off" (the OS flushes on its
// own schedule), or a duration like "250ms" (fsync at most once per
// interval: a bounded machine-crash loss window, while process crashes
// still lose nothing). Only meaningful together with WithIngestDir.
func WithWALSync(policy string) Option { return func(c *config) { c.walSync = policy } }

// WithLeafSize sets the maximum series per index leaf (0 = the paper's
// default scaled to the collection).
func WithLeafSize(n int) Option { return func(c *config) { c.opts.LeafSize = n } }

// approxSpec resolves the configured approximate-query defaults into the
// core spec every query threads, validating mode name and parameters. The
// spec's δ-stop RNG seed is the zero seed, so repeated queries are
// deterministic.
func (c *config) approxSpec() (core.ApproxSpec, error) {
	mode, err := core.ParseApproxMode(c.approxMode)
	if err != nil {
		return core.ApproxSpec{}, fmt.Errorf("hydra: %w", err)
	}
	spec := core.ApproxSpec{
		Mode:       mode,
		Epsilon:    c.epsilon,
		Delta:      c.delta,
		NodeBudget: int64(c.nodeBudget),
	}
	if spec.Mode == core.ModeDeltaEps && spec.Delta == 0 {
		spec.Delta = 1 // unset confidence means the deterministic ε guarantee
	}
	if err := spec.Validate(); err != nil {
		return core.ApproxSpec{}, fmt.Errorf("hydra: %w", err)
	}
	return spec, nil
}

// resolveQuerySpec finalizes the query-time half of the config, so a bad
// mode name or parameter fails the constructor instead of every later query.
func (c *config) resolveQuerySpec() error {
	spec, err := c.approxSpec()
	if err != nil {
		return err
	}
	c.spec = spec
	return nil
}

// WithApproxMode selects the engine's query answering mode — the mode
// lattice of the sequel paper, weakest guarantee first:
//
//   - "exact" (the default): the true k nearest neighbors.
//   - "ng": ng-approximate search — one root-to-leaf descent, the first
//     leaf's best matches, no error bound. The fastest mode.
//   - "delta-eps": δ-ε-approximate search — lower-bound pruning relaxed by
//     (1+ε) (WithEpsilon), so the answer's k-th distance is within (1+ε) of
//     the true one, with confidence δ (WithDelta; 1 = deterministic).
//     ε=0, δ=1 degenerates to exact search with bit-identical answers.
//   - "budget": exact search early-stopped by WithNodeBudget, returning
//     the best-so-far when the budget runs out.
//
// Non-exact modes are answered by the five methods with lower-bounding
// index structures (ADS+, DSTree, iSAX2+, SFA, VA+file); querying any other
// engine in a non-exact mode fails with ErrApproxUnsupported. QueryStats
// reports the answering mode, guarantee parameters, and nodes visited.
// Engine.WithQueryOptions derives per-request modes from one built engine.
func WithApproxMode(mode string) Option { return func(c *config) { c.approxMode = mode } }

// WithEpsilon sets the relative distance-error bound ε of the "delta-eps"
// mode: lower bounds are relaxed by (1+ε), so subtrees that cannot improve
// the answer by more than that factor are pruned. 0 keeps pruning exact.
func WithEpsilon(eps float64) Option { return func(c *config) { c.epsilon = eps } }

// WithDelta sets the confidence δ ∈ (0, 1] of the "delta-eps" mode's ε
// guarantee: with δ < 1 the traversal may stop once the best-so-far is
// within (1+ε) of the true answer with probability at least δ (a PAC-NN
// stopping radius estimated from a seeded sample of the collection). 1 (or
// unset) keeps the ε guarantee deterministic.
func WithDelta(delta float64) Option { return func(c *config) { c.delta = delta } }

// WithNodeBudget bounds how many index nodes (tree pops and leaf visits, or
// verified candidates for the filter-file methods) a "budget" or
// "delta-eps" query may visit before returning its best-so-far; 0 means
// unlimited. The budget counts work, not wall time, so answers are
// deterministic.
func WithNodeBudget(n int) Option { return func(c *config) { c.nodeBudget = n } }

// WithPartialOnDeadline turns deadline overruns into degraded answers
// instead of failures: when a query's context deadline expires mid-query,
// Query, QueryWithStats and each query of QueryBatch return the best-so-far
// k-NN candidates found up to that moment with a nil error, rather than
// context.DeadlineExceeded and nothing (QueryWithStats marks the answer
// with QueryStats.Partial), and QueryStream ends with that answer as its
// terminal event instead of an Err event. Exact-completing queries are
// unaffected and never marked partial; explicit cancellation (Canceled, not
// DeadlineExceeded) still fails, since the caller walked away. See doc.go
// "Partial answers and failure semantics" for the contract.
func WithPartialOnDeadline() Option {
	return func(c *config) { c.partialOnDeadline = true }
}

// WithRebuildFallback arms LoadIndex's last line of defense: when the
// snapshot cannot be loaded at all — corrupt (after quarantine), missing,
// version-skewed, or mismatched — the named method is built fresh from the
// configured dataset instead of failing, and the rebuilt index is saved
// back over the snapshot path (best effort) so the next start loads again.
// The BuildStats of the returned engine then report a build, not a load.
func WithRebuildFallback(method string) Option {
	return func(c *config) { c.rebuildMethod = method }
}

// SIMDBackend reports the kernel backend the process selected at startup:
// "avx2+fma" when the assembly kernels are active, "go" otherwise. The
// choice is process-wide and fixed at init — set HYDRA_SIMD=off in the
// environment (or build with -tags=purego) before starting to force the
// portable backend; both produce bit-identical answers.
func SIMDBackend() string { return simd.Backend() }

// Methods lists every registered similarity search method in registration
// order — the names BuildIndex accepts.
func Methods() []string { return core.Names() }

// PersistableMethods lists the methods whose built state can be saved with
// Engine.SaveIndex and reloaded with LoadIndex: every tree-backed method;
// the plain scans have no build state.
func PersistableMethods() []string { return core.Persistables() }

// ParseMethods expands a method-list argument the way every CLI does:
// "all" becomes the given set, a comma list becomes its trimmed non-empty
// entries, anything else is a single name.
func ParseMethods(v string, all []string) []string { return methods.ParseList(v, all) }
