// Command bench is the repository's one benchmark: six named workloads over
// the whole engine — scan, tree indexes exact and approximate, single and
// sharded serving, ingestion beside queries — each reporting the same
// end-to-end metrics, with every layer measured from outside (timed calls
// into exported functions, or a spawned hydra-serve driven over HTTP).
// BENCHMARK.json at the repository root names it; README.md beside this file
// defines every metric and says why each workload exists.
//
// Usage:
//
//	go run -C bench . -seed 1                      # every workload, untraced: end-to-end metrics
//	go run -C bench . -seed 1 -trace 1             # the separate traced run: per-layer metrics + span files
//	go run -C bench . -workload tree-exact -seconds 10
//	go run -C bench . -repeat 10                   # spread of every end-to-end metric over 10 seeds
//
// Each workload ends with one JSON line {"correct","attempted","failed",
// "metrics"}; the process exits non-zero if any answer was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"hydra"
)

// env is what one benchmark invocation hands every workload.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // the hydra module's directory
	outDir  string // bench/out: span files, the built hydra-serve
	tmpDir  string // this run's scratch directory under outDir, removed on exit

	cleanupMu sync.Mutex
	cleanups  []func()
}

// onExit registers fn to run on every exit path, SIGINT included; cleanups
// run last-registered first.
func (e *env) onExit(fn func()) {
	e.cleanupMu.Lock()
	e.cleanups = append(e.cleanups, fn)
	e.cleanupMu.Unlock()
}

// cleanup runs and clears the registered cleanups.
func (e *env) cleanup() {
	e.cleanupMu.Lock()
	fns := e.cleanups
	e.cleanups = nil
	e.cleanupMu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// workloadDir makes a fresh scratch directory for one workload run.
func (e *env) workloadDir(name string) (string, error) {
	return os.MkdirTemp(e.tmpDir, name+"-")
}

// result is one workload run: the raw material of every metric.
type result struct {
	workload string
	prepareS float64
	setupS   []float64 // one entry per repetition of the set-up
	s        *samples  // the measured (untraced) phase; nil on a traced run
	rssMB    float64
	// extraFailed/extraAttempted count checks made outside the measured
	// phase (warm-up, post-recovery verification, traced operations).
	extraAttempted, extraFailed int
	// recallOverride replaces the measured phase's mean recall on workloads
	// whose answers can only be checked afterwards (ingest-mixed); NaN
	// otherwise.
	recallOverride float64
	layers         map[string]float64 // per-layer metrics of a traced run
	tr             *tracer
}

func newResult(workload string) *result {
	return &result{workload: workload, recallOverride: math.NaN(), layers: map[string]float64{}}
}

// check counts one correctness check made outside the measured phase.
func (r *result) check(ok bool) {
	r.extraAttempted++
	if !ok {
		r.extraFailed++
	}
}

func (r *result) attempted() int {
	n := r.extraAttempted
	if r.s != nil {
		n += r.s.attempted
	}
	return n
}

func (r *result) failed() int {
	n := r.extraFailed
	if r.s != nil {
		n += r.s.failed
	}
	return n
}

// recall is the workload's recall_at_k.
func (r *result) recall() float64 {
	if !math.IsNaN(r.recallOverride) {
		return r.recallOverride
	}
	if r.s == nil || r.s.recallN == 0 {
		return 0
	}
	return r.s.recallSum / float64(r.s.recallN)
}

// endToEndValues computes the untraced run's metrics by name.
func (r *result) endToEndValues() map[string]float64 {
	q := r.s.queryLatencies()
	return map[string]float64{
		"setup_s":          median(r.setupS),
		"op_p50_ms":        percentile(q, 50),
		"op_p99_ms":        percentile(q, 99),
		"ops_per_s":        float64(r.s.attempted) / r.s.wall.Seconds(),
		"class_geomean_ms": classGeomean(r.s.classMedians()),
		"recall_at_k":      r.recall(),
		"peak_rss_mb":      r.rssMB,
	}
}

// workload is one named workload of the benchmark.
type workload struct {
	name string
	// exact workloads must print recall_at_k = 1.
	exact bool
	run   func(e *env) (*result, error)
}

var workloads = []workload{
	{"scan-exact", true, runScanExact},
	{"tree-exact", true, runTreeExact},
	{"tree-approx", false, runTreeApprox},
	{"serve-single", true, runServeSingle},
	{"serve-sharded", true, runServeSharded},
	{"ingest-mixed", true, runIngestMixed},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of each workload's measured phase")
		trace   = flag.Int("trace", 0, "1 = the traced run: per-layer metrics and span files instead of end-to-end metrics")
		repeat  = flag.Int("repeat", 0, "run the untraced suite N times on seeds seed..seed+N-1 and print each metric's spread against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *trace != 0 && *trace != 1 || *repeat < 0 {
		flag.Usage()
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all or one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}

	e, err := newEnv(*seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	code := 0
	if *repeat > 0 {
		code = runRepeat(e, selected, *repeat)
	} else {
		printHost(e)
		for _, w := range selected {
			if !runOne(e, w) {
				code = 1
			}
		}
	}
	e.cleanup()
	os.Exit(code)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// newEnv locates the hydra module and makes the run's scratch directory.
func newEnv(seed int64, seconds time.Duration, trace bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{seed: seed, seconds: seconds, trace: trace, root: root, outDir: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if e.tmpDir, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		return nil, err
	}
	e.onExit(func() { os.RemoveAll(e.tmpDir) })
	return e, nil
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module hydra.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if first, _, _ := strings.Cut(string(b), "\n"); strings.TrimSpace(first) == "module hydra" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no hydra module (a go.mod declaring \"module hydra\") at or above the working directory")
		}
		dir = parent
	}
}

// printHost prints the host block every run starts with.
func printHost(e *env) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d simd=%s go=%s commit=%s seed=%d seconds=%g trace=%v\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), hydra.SIMDBackend(), runtime.Version(), commit,
		e.seed, e.seconds.Seconds(), e.trace)
}

// runOne runs one workload, prints its metrics and its result line, and
// reports whether every answer was correct.
func runOne(e *env, w workload) bool {
	r, err := w.run(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return false
	}
	correct := r.failed() == 0 && (!w.exact || e.trace || r.recall() == 1)
	var defs []metricDef
	var values map[string]float64
	if e.trace {
		r.layers["bench.prepare_s"] = r.prepareS
		defs, values = perLayer, r.layers
		printSpanTable(r.tr)
		path := filepath.Join(e.outDir, "trace-"+w.name+".jsonl")
		if err := r.tr.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: writing spans: %v\n", w.name, err)
			return false
		}
		fmt.Printf("%s: %d spans written to %s\n", w.name, len(r.tr.spans), path)
	} else {
		defs, values = endToEnd, r.endToEndValues()
		n := len(r.s.queryLatencies())
		note := ""
		if !tailSupported(n) {
			note = fmt.Sprintf(" (fewer than %d: op_p99_ms has under ten samples beyond it)", minSamplesP99)
		}
		fmt.Printf("%s: %d operations in %.2fs, %d query samples%s, fail_share=%g\n", w.name,
			r.s.attempted, r.s.wall.Seconds(), n, note, float64(r.failed())/float64(r.attempted()))
		for c, cl := range r.s.classes {
			fmt.Printf("%s:   class %-18s n=%-6d p50=%.4f ms\n", w.name, cl.name, len(r.s.latMs[c]), median(r.s.latMs[c]))
		}
		fmt.Printf("%s:   bench.prepare_s = %.3f s, set-up repetitions %.4f s\n", w.name, r.prepareS, r.setupS)
	}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("%s: %-42s = %12.6g %s\n", w.name, d.name, v, d.unit)
		}
	}
	fmt.Println(string(resultLine(correct, r.attempted(), r.failed(), defs, values)))
	return correct
}

// resultLine is the driver's contract line: exactly the keys correct,
// attempted, failed and metrics, every defined metric present.
func resultLine(correct bool, attempted, failed int, defs []metricDef, values map[string]float64) []byte {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(attempted, 1), failed, map[string]metric{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) {
			v = 0
		}
		// JSON has no infinity; a latency distribution made of failures
		// reads as the largest finite number.
		v = min(max(v, -math.MaxFloat64), math.MaxFloat64)
		out.Metrics[d.name] = metric{v, d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only finite numbers and strings are marshalled
	}
	return b
}

// printSpanTable summarizes a traced run's spans by name: how many, their
// median duration and their median self time.
func printSpanTable(tr *tracer) {
	self := selfTimes(tr.spans)
	type agg struct{ dur, self []float64 }
	byName := map[string]*agg{}
	var order []string
	for _, s := range tr.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			order = append(order, s.Name)
		}
		a.dur = append(a.dur, float64(s.EndNs-s.StartNs)/1e6)
		a.self = append(a.self, float64(self[s.ID])/1e6)
	}
	for _, name := range order {
		a := byName[name]
		fmt.Printf("%s: span %-24s n=%-6d p50=%.4f ms  self p50=%.4f ms\n", tr.workload, name, len(a.dur), median(a.dur), median(a.self))
	}
}

// runRepeat is the repeatability tool: n untraced runs of each selected
// workload on consecutive seeds, then per metric the median, min, max and
// the driver's spread measure against the metric's bound.
func runRepeat(e *env, selected []workload, n int) int {
	e.trace = false
	printHost(e)
	code := 0
	firstSeed := e.seed
	for _, w := range selected {
		runs := map[string][]float64{}
		for i := 0; i < n; i++ {
			e.seed = firstSeed + int64(i)
			r, err := w.run(e)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", w.name, e.seed, err)
				return 1
			}
			if r.failed() > 0 || w.exact && r.recall() != 1 {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed, recall %g\n", w.name, e.seed, r.failed(), r.attempted(), r.recall())
				code = 1
			}
			for k, v := range r.endToEndValues() {
				runs[k] = append(runs[k], v)
			}
		}
		for _, d := range endToEnd {
			xs := runs[d.name]
			spread := iqrShare(xs)
			verdict := "inside"
			if d.name == "setup_s" {
				verdict = "not gated"
			} else if spread > d.bound {
				verdict = "OUTSIDE"
			}
			fmt.Printf("%-14s %-17s median %12.6g  min %12.6g  max %12.6g %-5s spread %.4f  bound %.2f  %s\n",
				w.name, d.name, median(xs), percentile(xs, 0), percentile(xs, 100), d.unit, spread, d.bound, verdict)
		}
	}
	e.seed = firstSeed
	return code
}

// resetPeakRSS makes the next peakRSSMB reading of the bench process cover
// only what runs from here on: it returns freed heap to the OS, then asks
// Linux to reset the high-water mark. Where that is unsupported the mark
// simply stays monotone.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: absent off Linux
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in MB;
// 0 where /proc does not provide it.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// timed runs fn and returns how long it took, in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
