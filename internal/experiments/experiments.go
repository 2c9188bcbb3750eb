// Package experiments implements the paper's experimental framework (§4):
// parametrization, evaluation of individual methods, and comparison of the
// best methods. Every figure and table of the evaluation section has a
// corresponding exported function here that regenerates it as a Report (the
// per-experiment index is `hydra-bench -list`; README.md, "Reproduce a
// figure").
//
// Times reported are total times = measured CPU time + simulated I/O time on
// the configured device profile; disk-access counts, pruning ratios and TLB
// are deterministic (see internal/storage for the charge model).
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

// Config parametrizes a harness run. The zero value is NOT usable; call
// DefaultConfig.
type Config struct {
	// Scale converts the paper's dataset sizes (GB) into series counts; see
	// dataset.NumSeriesForGB. 1.0 reproduces the paper exactly.
	Scale float64
	// NumQueries per workload (paper: 100).
	NumQueries int
	// SeriesLen is the default series length (paper: 256).
	SeriesLen int
	// Device converts I/O counters into simulated time.
	Device storage.DeviceProfile
	// Seed drives all data generation.
	Seed int64
	// K is the number of neighbors (paper: 1).
	K int
	// CalibNoise is the noise level of difficulty-calibrated Synth-Rand
	// workloads at reduced scales (see synthRand); default 0.15.
	CalibNoise float64
	// IndexDir, when non-empty, enables the snapshot cache (hydra-bench
	// -index): tree indexes are persisted there on first build and loaded on
	// later runs, so only the first run of a parametrization pays
	// construction. Cached and fresh runs answer queries bit-identically;
	// the build column of a cached run reports snapshot load cost
	// (stats.BuildStats.FromSnapshot).
	IndexDir string
	// Epsilon is the δ-ε-approximate relative error bound used by the approx
	// experiment; 0 selects the experiment's default (1.0).
	Epsilon float64
	// Delta is the δ-ε-approximate confidence used by the approx experiment;
	// 0 selects the experiment's default (0.95).
	Delta float64
	// Modes restricts which answering modes the approx experiment reports
	// ("exact", "ng", "delta-eps"); nil/empty reports all three. The exact
	// oracle is always computed — it is the baseline the others score
	// against — but only requested modes appear as rows.
	Modes []string
	// Workers is the intra-query parallelism degree passed to the methods
	// (core.Options.Workers): 0 keeps the paper's serial execution. Only the
	// scan methods honor it. Answers and pruning ratios are bit-identical
	// either way, and so are total bytes moved, but the scan's seq/rand
	// split shifts: a sharded pass charges up to Workers-1 seeks per query
	// that the serial scan does not, so access-count columns of figures
	// that include UCR-Suite reflect the parallel layout. Reproducing the
	// paper's accounting exactly requires Workers == 0.
	Workers int
}

// DefaultConfig returns the paper's setup at the given scale.
func DefaultConfig(scale float64) Config {
	return Config{
		Scale:      scale,
		NumQueries: 100,
		SeriesLen:  256,
		Device:     storage.HDD,
		Seed:       1,
		K:          1,
		CalibNoise: 0.15,
	}
}

// numSeries translates a paper-scale GB figure to a series count.
func (c Config) numSeries(gb float64, length int) int {
	return dataset.NumSeriesForGB(gb, length, c.Scale)
}

// synthRand builds the Synth-Rand workload for collection ds.
//
// At paper scale (Scale == 1) it draws independent random walks, exactly as
// §4.2. At reduced scales the same generator would distort the paper's
// query difficulty: a random-walk query's nearest neighbor among 100M series
// is far closer (relatively) than among a collection thousands of times
// smaller, so every query would behave like the paper's hardest ones —
// pruning ratios collapse and the scan-vs-index crossovers invert. To
// preserve the paper's effective Synth-Rand difficulty, scaled runs draw
// queries from the collection with calibrated noise (CalibNoise ≈ 0.15
// lands pruning ratios in the paper's Synth-Rand range, ~0.995-0.9999).
// The substitution is this function's alone: Scale >= 1 runs the paper's
// generator unchanged.
func (c Config) synthRand(ds *dataset.Dataset, seed int64) *dataset.Workload {
	if c.Scale >= 1 {
		return dataset.SynthRand(c.NumQueries, ds.SeriesLen(), seed)
	}
	noise := c.CalibNoise
	if noise <= 0 {
		noise = 0.15
	}
	w := dataset.Ctrl(ds, c.NumQueries, noise, seed)
	w.Name = "Synth-Rand(calibrated)"
	return w
}

// leafFor scales the paper's tuned 100K-on-100GB leaf size to a collection
// of n series (same 1:1000 proportion), with a floor that keeps trees
// non-degenerate at small scales.
func leafFor(n int) int {
	l := n / 1000
	if l < 8 {
		l = 8
	}
	return l
}

// options assembles the per-run method options: the given leaf size plus the
// harness-wide knobs carried by the config.
func (c Config) options(leaf int) core.Options {
	return core.Options{LeafSize: leaf, Workers: c.Workers}
}

// Report is a printable experiment result.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Quality carries machine-readable answer-quality metrics (recall, MAP,
	// node ratios) keyed "metric/method/mode" plus "<mode>/recall/min"
	// aggregates — consumed by hydra-bench's -gate-recall and recorded in
	// BENCH json for tools/benchdiff. Nil for experiments without an
	// accuracy dimension.
	Quality map[string]float64
}

// Fprint renders the report as an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(r.Header, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// secs formats a duration as seconds with 3 decimals.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// MethodRun holds one method's build and workload measurements.
type MethodRun struct {
	Name     string
	Method   core.Method
	Coll     *core.Collection
	Build    stats.BuildStats
	Workload stats.WorkloadStats
}

// IdxTime is the build total time on device d.
func (m *MethodRun) IdxTime(d storage.DeviceProfile) time.Duration { return m.Build.TotalTime(d) }

// QueryTime is the summed workload total time on device d.
func (m *MethodRun) QueryTime(d storage.DeviceProfile) time.Duration {
	return m.Workload.TotalTime(d)
}

// Idx10KTime is build + extrapolated 10,000-query time (paper procedure).
func (m *MethodRun) Idx10KTime(d storage.DeviceProfile) time.Duration {
	return m.Build.TotalTime(d) + m.Workload.Extrapolate10K(d, 10000)
}

// queryMem tallies process-wide heap activity during workload answering
// (runMethod brackets core.RunWorkload with MemStats reads, so generation
// and index construction are excluded). hydra-bench reports the deltas as
// bytes/query and allocs/query per experiment. Experiments answer workloads
// serially, so the process-wide deltas belong to the bracketed queries.
var queryMem struct {
	queries atomic.Int64
	bytes   atomic.Int64
	allocs  atomic.Int64
	nanos   atomic.Int64
}

// QueryMemTally returns the cumulative (queries answered, bytes allocated,
// heap allocations, wall-clock nanoseconds spent answering) of all
// workloads run by this package so far. The nanoseconds bracket only
// workload answering — generation and index construction are excluded — so
// deltas divide into an honest CPU-side ns/query for trend tracking
// (tools/benchdiff).
func QueryMemTally() (queries, bytes, allocs, nanos int64) {
	return queryMem.queries.Load(), queryMem.bytes.Load(), queryMem.allocs.Load(), queryMem.nanos.Load()
}

// HostInfo describes the machine and kernel backend a run executed on —
// recorded in hydra-bench output so performance numbers stay attributable
// (the same experiment differs several-fold between the avx2+fma and go
// backends).
type HostInfo struct {
	GOOS        string   `json:"goos"`
	GOARCH      string   `json:"goarch"`
	MaxProcs    int      `json:"maxprocs"`
	CPUFeatures []string `json:"cpu_features"`
	SIMDBackend string   `json:"simd_backend"`
}

// Host probes the current machine and selected kernel backend.
func Host() HostInfo {
	return HostInfo{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		MaxProcs:    runtime.GOMAXPROCS(0),
		CPUFeatures: simd.Features(),
		SIMDBackend: simd.Backend(),
	}
}

// String renders the host line hydra-bench prints as its header.
func (h HostInfo) String() string {
	return fmt.Sprintf("%s/%s maxprocs=%d cpu=[%s] simd=%s",
		h.GOOS, h.GOARCH, h.MaxProcs, strings.Join(h.CPUFeatures, " "), h.SIMDBackend)
}

// runMethod builds one method over ds and answers the workload. A non-empty
// snapdir switches index acquisition to the snapshot cache (see buildOrLoad):
// persisted indexes are loaded instead of rebuilt, the build-once/query-many
// workflow.
func runMethod(name string, ds *dataset.Dataset, wl *dataset.Workload, opts core.Options, k int, snapdir string) (*MethodRun, error) {
	m, err := core.New(name, opts)
	if err != nil {
		return nil, err
	}
	coll := core.NewCollection(ds)
	m, bs, err := buildOrLoad(m, coll, name, opts, snapdir)
	if err != nil {
		return nil, fmt.Errorf("%s build: %w", name, err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ws, err := core.RunWorkload(context.Background(), m, coll, wl, k)
	queryMem.nanos.Add(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&m1)
	queryMem.queries.Add(int64(len(ws.Queries)))
	queryMem.bytes.Add(int64(m1.TotalAlloc - m0.TotalAlloc))
	queryMem.allocs.Add(int64(m1.Mallocs - m0.Mallocs))
	if err != nil {
		return nil, fmt.Errorf("%s workload: %w", name, err)
	}
	return &MethodRun{Name: name, Method: m, Coll: coll, Build: bs, Workload: ws}, nil
}

// runAll runs the listed methods over a fresh copy of the collection each.
func runAll(names []string, ds *dataset.Dataset, wl *dataset.Workload, opts core.Options, k int, snapdir string) ([]*MethodRun, error) {
	out := make([]*MethodRun, 0, len(names))
	for _, n := range names {
		r, err := runMethod(n, ds, wl, opts, k, snapdir)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// winner returns the name of the run minimizing the given cost.
func winner(runs []*MethodRun, cost func(*MethodRun) time.Duration) string {
	best := ""
	bestV := time.Duration(1<<63 - 1)
	for _, r := range runs {
		if v := cost(r); v < bestV {
			best, bestV = r.Name, v
		}
	}
	return best
}

// TLB computes the paper's tightness-of-the-lower-bound measure for a
// leaf-bounding index: the mean over (sampled) leaves and queries of
// LB(q, leaf) / avgTrueDist(q, leaf members). maxLeaves bounds the cost on
// indexes with very many leaves (e.g., the VA+file, whose "leaves" are
// per-series cells); 0 means all leaves.
func TLB(lb core.LeafBounder, c *core.Collection, queries []series.Series, maxLeaves int) float64 {
	members := lb.LeafMembers()
	idx := make([]int, len(members))
	for i := range idx {
		idx[i] = i
	}
	if maxLeaves > 0 && len(idx) > maxLeaves {
		step := len(idx) / maxLeaves
		sampled := idx[:0]
		for i := 0; i < len(members); i += step {
			sampled = append(sampled, i)
		}
		idx = sampled
	}
	var sum float64
	var count int64
	for _, q := range queries {
		for _, li := range idx {
			ids := members[li]
			if len(ids) == 0 {
				continue
			}
			var avg float64
			for _, id := range ids {
				avg += series.Dist(q, c.File.Peek(id))
			}
			avg /= float64(len(ids))
			if avg == 0 {
				continue
			}
			sum += lb.LeafLB(q, li) / avg
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// easyHardSplit classifies queries by average pruning ratio across the given
// runs (the paper's Easy-20/Hard-20 construction: "A query is considered
// easy, or hard, depending on its pruning ratio (computed as the average
// across all techniques)") and returns the per-method mean total time over
// the easiest and hardest fraction (20% in the paper).
func easyHardSplit(runs []*MethodRun, d storage.DeviceProfile, frac float64) (easy, hard map[string]time.Duration) {
	if len(runs) == 0 {
		return nil, nil
	}
	nq := len(runs[0].Workload.Queries)
	type qp struct {
		idx   int
		prune float64
	}
	qps := make([]qp, nq)
	for i := 0; i < nq; i++ {
		var p float64
		for _, r := range runs {
			p += r.Workload.Queries[i].PruningRatio()
		}
		qps[i] = qp{idx: i, prune: p / float64(len(runs))}
	}
	// Highest pruning ratio = easiest.
	sort.Slice(qps, func(a, b int) bool { return qps[a].prune > qps[b].prune })
	n := int(frac * float64(nq))
	if n < 1 {
		n = 1
	}
	easy = map[string]time.Duration{}
	hard = map[string]time.Duration{}
	for _, r := range runs {
		var e, h time.Duration
		for i := 0; i < n; i++ {
			e += r.Workload.Queries[qps[i].idx].TotalTime(d)
			h += r.Workload.Queries[qps[nq-1-i].idx].TotalTime(d)
		}
		easy[r.Name] = e / time.Duration(n)
		hard[r.Name] = h / time.Duration(n)
	}
	return easy, hard
}
