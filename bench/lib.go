package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"hydra"
)

// Library workloads: the engine is called in-process through the hydra
// facade, one closed-loop client.

// Collection sizes. They are far below the paper's because the driver caps a
// whole run (inputs, repeated set-up, warm-up, measured phase) at a few tens
// of seconds; README.md states them beside each workload.
const (
	scanSeries = 24000 // scan-exact: 24.6 MB of raw series, ten times the 2.5 MB L2
	treeSeries = 10000 // tree-exact and tree-approx
	// exactQueries is tree-exact's list length. Its medians sit where query
	// difficulty varies most, so across seeds they move with which queries
	// were drawn (about 6 % at 192 queries); a longer list steadies them.
	exactQueries = 384
	// approxQueries is tree-approx's: a round is already 15 classes of it.
	approxQueries = 192
	// traceShare is the part of the measured duration each phase of a traced
	// run gets (one untraced phase for the overhead figure, one traced).
	traceShare = 4
)

// roundOf is a round that runs queries [0, n) in class.
func roundOf(class, n int) []opSpec {
	round := make([]opSpec, n)
	for i := range round {
		round[i] = opSpec{class: class, arg: i}
	}
	return round
}

// engineOp is one k-NN query on an in-process engine, graded by grade.
func engineOp(eng *hydra.Engine, class string, q []float32, tr *tracer, grade func(got []hydra.Match, err error) (bool, float64)) opResult {
	op := tr.begin(0, class, "op")
	call := tr.begin(op, class, "engine.query")
	start := time.Now()
	got, err := eng.Query(context.Background(), q, topK)
	dur := time.Since(start)
	tr.end(call)
	tr.end(op)
	ok, recall := grade(got, err)
	return opResult{dur: dur, ok: ok, recall: recall}
}

// measure runs the workload's measured part. Untraced, that is the loop for
// the full duration, feeding the end-to-end metrics. Traced, it is a short
// untraced phase then an equally short traced one: the spans feed the
// per-layer timings and the difference between the two medians is the
// tracing overhead; no end-to-end metric comes out of it.
func measure(e *env, r *result, loop *closedLoop) {
	if !e.trace {
		r.s = loop.run(e.seconds, loop.minRounds(), nil)
		return
	}
	d := e.seconds / traceShare
	plain := loop.run(d, 1, nil)
	r.tr = newTracer(r.workload)
	traced := loop.run(d, 1, r.tr)
	r.extraAttempted += plain.attempted + traced.attempted
	r.extraFailed += plain.failed + traced.failed
	if p := median(plain.queryLatencies()); p > 0 {
		r.layers["bench.trace_overhead_pct"] = (median(traced.queryLatencies())/p - 1) * 100
	}
}

// repeatSetup runs setup n times, recording each duration; the engines of
// the last repetition are the ones the workload goes on to use. teardown
// undoes a repetition (stops its servers, closes its engine, drops
// its references) before the next one, outside the timed interval: set-up
// time is a start, not a restart.
//
// The repetitions run with the collector's pacing switched off and one
// explicit collection before each, so from the second on they build in heap
// the process already holds. With pacing on, the runtime hands freed spans
// back to the kernel between repetitions and the next one faults fresh pages
// in, and what a fresh page costs on this VM depends on what ran in the last
// minute: hydra.Open of the scan-exact file read 28 ms on a held heap in
// either state, and 60 or 210 ms on fresh pages. So setup_s is the CPU cost of
// set-up — allocation included, concurrent collection and the kernel's page
// supply excluded — which is the part a change to the engine can move.
//
// After the last repetition the heap is handed back and the bench process's
// peak-RSS mark is reset, so peak_rss_mb covers the engines as built plus what
// answering adds, not the builds' garbage.
func repeatSetup(r *result, n int, setup, teardown func() error) error {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := teardown(); err != nil {
				return fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		runtime.GC()
		s, err := timed(setup)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, s)
	}
	resetPeakRSS()
	return nil
}

func runScanExact(e *env) (*result, error) {
	r := newResult("scan-exact")
	dir, err := e.workloadDir(r.workload)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "collection.hyd")
	var d *hydra.Dataset
	var qs [][]float32
	if r.prepareS, err = timed(func() error {
		if d, err = genCollection(scanSeries, e.seed); err != nil {
			return err
		}
		qs = genQueries(d, listLen, e.seed)
		return d.Save(path)
	}); err != nil {
		return nil, err
	}

	// Set-up is opening the collection file: the scan has no build phase.
	var eng *hydra.Engine
	if err := repeatSetup(r, 5, func() (err error) {
		eng, err = hydra.Open(path)
		return err
	}, func() error { eng = nil; return nil }); err != nil {
		return nil, err
	}

	// The warm-up pass over the query list doubles as the reference: the
	// scan is its own exact answer, anchored by the naive loop.
	ref, err := referenceAnswers(eng, qs)
	if err != nil {
		return nil, err
	}
	if err := checkAgainstNaive(d, qs, ref); err != nil {
		return nil, err
	}
	loop := &closedLoop{
		classes: []classSpec{{"query", true}},
		rounds:  [][]opSpec{roundOf(0, len(qs))},
		do: func(_ int, o opSpec, tr *tracer) opResult {
			return engineOp(eng, "query", qs[o.arg], tr, func(got []hydra.Match, err error) (bool, float64) {
				return exactResult(got, ref[o.arg], err, sameAnswer)
			})
		},
	}
	measure(e, r, loop)
	r.rssMB = peakRSSMB(os.Getpid())
	if !e.trace {
		return r, nil
	}

	c, err := countPass(eng, qs, ref, 0)
	if err != nil {
		return nil, err
	}
	facadeLayers(r, c)
	r.layers["scan.ucr.query_p50_ms"] = median(r.tr.durationsMs("engine.query", ""))
	r.layers["scan.ucr.dist_calcs_per_query"] = c.distCalcs
	r.layers["scan.ucr.gb_per_s"] = c.ioBytes * float64(c.queries) / c.wallS / 1e9

	// Intra-query parallelism: the same queries on a 2-worker engine.
	par, err := hydra.Open(path, hydra.WithWorkers(2))
	if err != nil {
		return nil, err
	}
	sub := qs[:64]
	if _, err := referenceAnswers(par, sub); err != nil {
		return nil, err
	}
	serialS, err := timed(func() error { _, err := referenceAnswers(eng, sub); return err })
	if err != nil {
		return nil, err
	}
	var parAns [][]hydra.Match
	parS, err := timed(func() (err error) { parAns, err = referenceAnswers(par, sub); return err })
	if err != nil {
		return nil, err
	}
	for i := range parAns {
		r.check(sameAnswer(parAns[i], ref[i]))
	}
	r.layers["core.parallel_scan.speedup_w2"] = serialS / parS
	probeSIMD(r, d, qs, ref)
	return r, nil
}

func runTreeExact(e *env) (*result, error) {
	r := newResult("tree-exact")
	var d *hydra.Dataset
	var qs [][]float32
	var ref [][]hydra.Match
	var err error
	if r.prepareS, err = timed(func() error {
		if d, err = genCollection(treeSeries, e.seed); err != nil {
			return err
		}
		qs = genQueries(d, exactQueries, e.seed)
		scan, err := hydra.Open("", hydra.WithData(d))
		if err != nil {
			return err
		}
		if ref, err = referenceAnswers(scan, qs); err != nil {
			return err
		}
		return checkAgainstNaive(d, qs, ref)
	}); err != nil {
		return nil, err
	}

	if e.trace {
		// A traced run is for attribution, not percentiles: half the list
		// keeps its warm-up, counting pass and two phases inside a run's time.
		qs, ref = qs[:len(qs)/2], ref[:len(ref)/2]
	}

	// Set-up is the paper's construction cost: the six builds.
	engines := make([]*hydra.Engine, len(treeMethods))
	buildS := make([][]float64, len(treeMethods))
	setups := 3
	if e.trace {
		setups = 1
	}
	if err := repeatSetup(r, setups, func() error {
		for i, m := range treeMethods {
			s, err := timed(func() (err error) {
				engines[i], err = hydra.BuildIndex(context.Background(), m, hydra.WithData(d))
				return err
			})
			if err != nil {
				return fmt.Errorf("building %s: %w", m, err)
			}
			buildS[i] = append(buildS[i], s)
		}
		return nil
	}, func() error { clear(engines); return nil }); err != nil {
		return nil, err
	}

	// One round is method-major: the whole query list on one index, then
	// the next, so each index runs with its own structures cache-hot.
	loop := &closedLoop{rounds: make([][]opSpec, 1)}
	for i, m := range treeMethods {
		loop.classes = append(loop.classes, classSpec{m, true})
		loop.rounds[0] = append(loop.rounds[0], roundOf(i, len(qs))...)
	}
	loop.do = func(_ int, o opSpec, tr *tracer) opResult {
		same := sameAnswer
		if treeMethods[o.class] == "M-tree" {
			same = closeAnswer
		}
		return engineOp(engines[o.class], treeMethods[o.class], qs[o.arg], tr, func(got []hydra.Match, err error) (bool, float64) {
			return exactResult(got, ref[o.arg], err, same)
		})
	}
	loop.warm(r)
	measure(e, r, loop)
	r.rssMB = peakRSSMB(os.Getpid())
	if !e.trace {
		return r, nil
	}

	var pooled counts
	for i, m := range treeMethods {
		c, err := countPass(engines[i], qs, ref, 0)
		if err != nil {
			return nil, err
		}
		pooled.add(c)
		p := "index." + layerKey[m] + "."
		r.layers[p+"build_s"] = median(buildS[i])
		r.layers[p+"query_p50_ms"] = median(r.tr.durationsMs("engine.query", m))
		r.layers[p+"raw_examined_per_query"] = c.rawExamined
		r.layers[p+"nodes_per_query"] = c.nodes
		r.layers[p+"lb_calcs_per_query"] = c.lbCalcs
		r.layers[p+"allocs_per_query"] = c.allocs
	}
	facadeLayers(r, pooled)
	slice, _, err := d.Shard(0, 2)
	if err != nil {
		return nil, err
	}
	if err := probeSlowIndexes(r, slice, qs[:64]); err != nil {
		return nil, err
	}
	probeSIMD(r, d, qs, ref)
	return r, nil
}

// Approximate-mode parameters, as BENCH_approx.json uses them.
const (
	approxEpsilon    = 1.0
	approxDelta      = 0.95
	approxNodeBudget = 64
)

// approxOptions are the query options of one approximate mode.
func approxOptions(mode string) []hydra.Option {
	switch mode {
	case "delta-eps":
		return []hydra.Option{hydra.WithApproxMode(mode), hydra.WithEpsilon(approxEpsilon), hydra.WithDelta(approxDelta)}
	case "budget":
		return []hydra.Option{hydra.WithApproxMode(mode), hydra.WithNodeBudget(approxNodeBudget)}
	}
	return []hydra.Option{hydra.WithApproxMode(mode)}
}

func runTreeApprox(e *env) (*result, error) {
	r := newResult("tree-approx")
	dir, err := e.workloadDir(r.workload)
	if err != nil {
		return nil, err
	}
	var d *hydra.Dataset
	var qs [][]float32
	var ref [][]hydra.Match
	snap := func(m string) string { return filepath.Join(dir, hydra.SnapshotName(m)) }
	var saveS, snapBytes float64
	if r.prepareS, err = timed(func() error {
		if d, err = genCollection(treeSeries, e.seed); err != nil {
			return err
		}
		qs = genQueries(d, approxQueries, e.seed)
		scan, err := hydra.Open("", hydra.WithData(d))
		if err != nil {
			return err
		}
		if ref, err = referenceAnswers(scan, qs); err != nil {
			return err
		}
		if err := checkAgainstNaive(d, qs, ref); err != nil {
			return err
		}
		for _, m := range approxMethods {
			built, err := hydra.BuildIndex(context.Background(), m, hydra.WithData(d))
			if err != nil {
				return fmt.Errorf("building %s: %w", m, err)
			}
			s, err := timed(func() error { return built.SaveIndex(snap(m)) })
			if err != nil {
				return fmt.Errorf("saving %s: %w", m, err)
			}
			saveS += s
			snapBytes += float64(fileSize(snap(m)))
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Set-up is the build-once/load-many path: the five snapshot loads.
	loaded := make([]*hydra.Engine, len(approxMethods))
	loadS := make([][]float64, len(approxMethods))
	if err := repeatSetup(r, 5, func() error {
		for i, m := range approxMethods {
			s, err := timed(func() (err error) {
				loaded[i], err = hydra.LoadIndex(context.Background(), snap(m), hydra.WithData(d))
				return err
			})
			if err != nil {
				return err
			}
			loadS[i] = append(loadS[i], s)
		}
		return nil
	}, func() error { clear(loaded); return nil }); err != nil {
		return nil, err
	}

	// Fifteen classes, method x mode, each a derived view of a loaded index.
	var views []*hydra.Engine
	loop := &closedLoop{rounds: make([][]opSpec, 1)}
	for i, m := range approxMethods {
		for _, mode := range approxModes {
			v, err := loaded[i].WithQueryOptions(approxOptions(mode)...)
			if err != nil {
				return nil, fmt.Errorf("deriving %s/%s: %w", m, mode, err)
			}
			loop.rounds[0] = append(loop.rounds[0], roundOf(len(views), len(qs))...)
			loop.classes = append(loop.classes, classSpec{m + "/" + mode, true})
			views = append(views, v)
		}
	}
	loop.do = func(_ int, o opSpec, tr *tracer) opResult {
		return engineOp(views[o.class], loop.classes[o.class].name, qs[o.arg], tr, func(got []hydra.Match, err error) (bool, float64) {
			return err == nil && wellFormed(got, topK, d.Len()), recallAt(got, ref[o.arg])
		})
	}
	loop.warm(r)
	measure(e, r, loop)
	r.rssMB = peakRSSMB(os.Getpid())

	// The delta-eps guarantee is probabilistic: at confidence delta, that
	// share of answers must sit within (1+eps) of the exact k-th distance.
	// One pass per method settles it, traced or not.
	var pooled counts
	byMode := make([]counts, len(approxModes))
	for i := range approxMethods {
		for j, mode := range approxModes {
			eps := 0.0
			if mode == "delta-eps" {
				eps = approxEpsilon
			}
			c, err := countPass(views[i*len(approxModes)+j], qs, ref, eps)
			if err != nil {
				return nil, err
			}
			pooled.add(c)
			byMode[j].nodes += c.nodes / float64(len(approxMethods))
			byMode[j].recall += c.recall / float64(len(approxMethods))
			byMode[j].guarantee += c.guarantee / float64(len(approxMethods))
		}
	}
	for j, mode := range approxModes {
		if mode == "delta-eps" {
			r.check(byMode[j].guarantee >= approxDelta)
		}
	}
	if !e.trace {
		return r, nil
	}

	for j, mode := range approxModes {
		var ms []float64
		for _, m := range approxMethods {
			ms = append(ms, r.tr.durationsMs("engine.query", m+"/"+mode)...)
		}
		p := "core.approx." + mode + "."
		r.layers[p+"query_p50_ms"] = median(ms)
		r.layers[p+"nodes_per_query"] = byMode[j].nodes
		r.layers[p+"recall_at_k"] = byMode[j].recall
		if mode == "delta-eps" {
			r.layers[p+"guarantee_share"] = byMode[j].guarantee
		}
	}
	facadeLayers(r, pooled)
	var totalLoad float64
	for i, m := range approxMethods {
		l := median(loadS[i])
		r.layers["persist."+layerKey[m]+".load_s"] = l
		totalLoad += l
	}
	r.layers["persist.save_mb_per_s"] = snapBytes / 1e6 / saveS
	r.layers["persist.load_mb_per_s"] = snapBytes / 1e6 / totalLoad
	r.layers["persist.snapshot_bytes_per_data_byte"] = snapBytes / float64(len(approxMethods)) / float64(d.SizeBytes())
	return r, nil
}
