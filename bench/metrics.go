package main

import (
	"math"
	"sort"
)

// metricDef names one metric the benchmark prints: the name later issues
// quote verbatim, its unit, and which direction is better.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; 0 on
	// per-layer metrics, which carry no bound.
	bound float64
}

// endToEnd is the set a user of the engine would see, reported on every
// workload by the untraced run. BENCHMARK.json repeats it (a unit test keeps
// the two in step). fail_share is printed beside them but is not in the
// list: it is 0 on every healthy run, and the driver's contract takes
// failures from the result line's attempted/failed counts instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"class_geomean_ms", "ms", "lower", 0.25},
	{"recall_at_k", "ratio", "higher", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// treeMethods are the six index methods of the tree-exact workload, in the
// method-major order it runs them; the first five answer approximate modes.
var treeMethods = []string{"ADS+", "DSTree", "iSAX2+", "SFA", "VA+file", "M-tree"}

// approxMethods are the methods with lower-bounding structures, the ones
// tree-approx snapshots and queries.
var approxMethods = treeMethods[:5]

// approxModes are the three non-exact answering modes tree-approx drives.
var approxModes = []string{"ng", "delta-eps", "budget"}

// layerKey is the short module-style key a method's per-layer metrics use
// (index.<key>.*, persist.<key>.load_s, hydra.append_series_per_s.<key>).
var layerKey = map[string]string{
	"UCR-Suite": "ucr", "ADS+": "ads", "DSTree": "dstree", "iSAX2+": "isax",
	"SFA": "sfatrie", "VA+file": "vafile", "M-tree": "mtree",
	"R*-tree": "rstartree", "Stepwise": "stepwise",
}

// ingestMethods are the methods with incremental insert, probed by the
// bulk-append rate metric.
var ingestMethods = []string{"UCR-Suite", "ADS+", "iSAX2+", "DSTree"}

// perLayer lists every per-layer metric of the traced run. A traced run of
// one workload measures the layers that workload exercises; the result line
// still carries every name, reading 0 for a layer the workload never calls
// (README.md says which workload measures which).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better})
	}

	for _, k := range []string{"sqdist_ns", "sqdist_ea_ns", "sqdist_ea_ordered_ns", "codebound_ns_per_code", "interval_ns", "eapca_ns"} {
		add("simd."+k, "ns", "lower")
	}
	add("storage.seq_ops_per_query", "count", "lower")
	add("storage.rand_ops_per_query", "count", "lower")
	add("storage.bytes_per_query", "B", "lower")

	add("scan.ucr.query_p50_ms", "ms", "lower")
	add("scan.ucr.dist_calcs_per_query", "count", "lower")
	add("scan.ucr.gb_per_s", "GB/s", "higher")
	add("core.parallel_scan.speedup_w2", "ratio", "higher")
	add("core.gather_fold_us", "us", "lower")

	for _, m := range treeMethods {
		p := "index." + layerKey[m] + "."
		add(p+"build_s", "s", "lower")
		add(p+"query_p50_ms", "ms", "lower")
		add(p+"raw_examined_per_query", "count", "lower")
		add(p+"nodes_per_query", "count", "lower")
		add(p+"lb_calcs_per_query", "count", "lower")
		add(p+"allocs_per_query", "count", "lower")
	}
	for _, m := range []string{"R*-tree", "Stepwise"} {
		p := "index." + layerKey[m] + "."
		add(p+"build_s", "s", "lower")
		add(p+"query_p50_ms", "ms", "lower")
		add(p+"allocs_per_query", "count", "lower")
	}

	for _, mode := range approxModes {
		p := "core.approx." + mode + "."
		add(p+"query_p50_ms", "ms", "lower")
		add(p+"nodes_per_query", "count", "lower")
		add(p+"recall_at_k", "ratio", "higher")
	}
	add("core.approx.delta-eps.guarantee_share", "ratio", "higher")

	for _, m := range approxMethods {
		add("persist."+layerKey[m]+".load_s", "s", "lower")
	}
	add("persist.save_mb_per_s", "MB/s", "higher")
	add("persist.load_mb_per_s", "MB/s", "higher")
	add("persist.snapshot_bytes_per_data_byte", "ratio", "lower")

	add("hydra.query_overhead_us", "us", "lower")
	add("hydra.allocs_per_query", "count", "lower")
	add("hydra.bytes_per_query", "B", "lower")
	add("hydra.batch_speedup_w2", "ratio", "higher")
	add("hydra.append_p50_ms", "ms", "lower")
	add("hydra.append_late_p99_ms", "ms", "lower")
	add("hydra.checkpoint_p50_ms", "ms", "lower")
	add("hydra.checkpoint_max_ms", "ms", "lower")
	add("hydra.checkpoint_bytes", "B", "lower")
	add("hydra.query_stall_max_ms", "ms", "lower")
	add("hydra.recovery_s", "s", "lower")
	for _, m := range ingestMethods {
		add("hydra.append_series_per_s."+layerKey[m], "1/s", "higher")
	}

	add("wal.append_us", "us", "lower")
	add("wal.bytes_per_user_byte", "ratio", "lower")
	add("wal.records", "count", "lower")
	add("wal.syncs", "count", "lower")

	add("server.rtt_p50_ms.query", "ms", "lower")
	add("server.rtt_p50_ms.batch16", "ms", "lower")
	add("server.engine_p50_ms", "ms", "lower")
	add("server.overhead_p50_ms", "ms", "lower")
	add("server.json_req_encode_us", "us", "lower")
	add("server.json_resp_decode_us", "us", "lower")
	add("server.req_bytes", "B", "lower")
	add("server.resp_bytes", "B", "lower")
	add("server.ready_s", "s", "lower")
	add("server.status_5xx", "count", "lower")
	add("server.partials", "count", "lower")
	add("server.rss_mb", "MB", "lower")

	add("coordinator.rtt_p50_ms", "ms", "lower")
	add("coordinator.slowest_shard_p50_ms", "ms", "lower")
	add("coordinator.overhead_p50_ms", "ms", "lower")
	add("coordinator.shard_requests_per_query", "count", "lower")
	add("coordinator.hedges", "count", "lower")
	add("coordinator.retries", "count", "lower")
	add("coordinator.breaker_opens", "count", "lower")
	add("coordinator.ready_s", "s", "lower")
	add("coordinator.rss_mb", "MB", "lower")

	add("bench.prepare_s", "s", "lower")
	add("bench.generator_late_p99_ms", "ms", "lower")
	add("bench.trace_overhead_pct", "%", "lower")
	return defs
}

// percentile returns the nearest-rank p-th percentile of xs (p = 0 is the
// minimum, 100 the maximum); 0 for no samples. xs is left as it was.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// minSamplesP99 is the sample count below which a 99th percentile has fewer
// than ten samples beyond it and is only indicative.
const minSamplesP99 = 1000

// tailSupported reports whether n samples leave at least ten beyond the
// 99th percentile.
func tailSupported(n int) bool { return n >= minSamplesP99 }

// classGeomean is the geometric mean of the per-class medians, so a
// regression in a fast class weighs as much as one in a slow class.
func classGeomean(medians []float64) float64 {
	if len(medians) == 0 {
		return 0
	}
	var logSum float64
	for _, m := range medians {
		logSum += math.Log(m)
	}
	return math.Exp(logSum / float64(len(medians)))
}

// iqrShare is the driver's spread measure: the distance between the first
// and third quartile of xs (the exclusive method Python's
// statistics.quantiles uses) as a share of their median.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quantile := func(q float64) float64 {
		pos := q * float64(n+1)
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := quantile(0.5)
	if med == 0 {
		return 0
	}
	return (quantile(0.75) - quantile(0.25)) / math.Abs(med)
}
