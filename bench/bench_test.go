package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"hydra"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 100); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestTailSampleCountRule(t *testing.T) {
	if tailSupported(999) || !tailSupported(1000) {
		t.Error("a p99 needs exactly 1000 samples to have ten beyond it")
	}
	for _, tc := range []struct{ perRound, want int }{{256, 4}, {1000, 1}, {1152, 1}, {999, 2}} {
		if got := minRoundsFor(tc.perRound); got != tc.want {
			t.Errorf("minRoundsFor(%d) = %d, want %d", tc.perRound, got, tc.want)
		}
	}
}

func TestClassGeomean(t *testing.T) {
	if got := classGeomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	// A 2x regression in the fast class moves it as much as one in the slow.
	fast, slow := classGeomean([]float64{2, 100}), classGeomean([]float64{1, 200})
	if math.Abs(fast-slow) > 1e-9 {
		t.Errorf("geomean weighs classes unequally: %v vs %v", fast, slow)
	}
	if got := classGeomean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("single-class geomean = %v, want the class median 5", got)
	}
}

func TestSamplesClassesAndFailures(t *testing.T) {
	s := newSamples([]classSpec{{"query", true}, {"batch16", false}})
	s.add(0, opResult{dur: 2 * time.Millisecond, ok: true, recall: 1})
	s.add(0, opResult{dur: 4 * time.Millisecond, ok: true, recall: 0.5})
	s.add(1, opResult{dur: 30 * time.Millisecond, ok: true, recall: math.NaN()})
	s.add(0, opResult{dur: time.Millisecond, ok: false, recall: math.NaN()})
	if s.attempted != 4 || s.failed != 1 {
		t.Errorf("attempted/failed = %d/%d, want 4/1", s.attempted, s.failed)
	}
	q := s.queryLatencies()
	if len(q) != 3 {
		t.Fatalf("query latencies pool %d samples, want the 3 of the query class", len(q))
	}
	if !math.IsInf(percentile(q, 100), 1) {
		t.Error("a failed operation must miss every latency (+Inf in the distribution)")
	}
	if s.recallN != 2 || s.recallSum != 1.5 {
		t.Errorf("recall over %d ops sums to %v, want 2 ops summing to 1.5", s.recallN, s.recallSum)
	}
	if got := s.classMedians(); len(got) != 2 || got[1] != 30 {
		t.Errorf("class medians = %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 60},  // two shard calls in flight at once:
		{ID: 3, Parent: 1, StartNs: 40, EndNs: 80},  // their union covers [10, 80)
		{ID: 4, Parent: 1, StartNs: 90, EndNs: 130}, // runs past its parent: clipped at 100
		{ID: 5, Parent: 2, StartNs: 20, EndNs: 30},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 70 - 10, 2: 40, 3: 40, 4: 40, 5: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestTracerOpIDsAndNilTracer(t *testing.T) {
	var off *tracer
	if id := off.begin(0, "c", "op"); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	off.end(0) // must not panic
	tr := newTracer("w")
	op := tr.begin(0, "c", "op")
	child := tr.begin(op, "c", "engine.query")
	tr.end(child)
	tr.end(op)
	other := tr.begin(0, "c", "op")
	tr.end(other)
	if tr.spans[child-1].Op != op || tr.spans[child-1].Parent != op || tr.spans[other-1].Op != other {
		t.Errorf("spans of one operation must share its root's ID: %+v", tr.spans)
	}
	if n := len(tr.durationsMs("op", "c")); n != 2 {
		t.Errorf("durationsMs found %d op spans, want 2", n)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	s := schedule{start: start, period: 20 * time.Millisecond}
	if got := s.due(3); !got.Equal(start.Add(60 * time.Millisecond)) {
		t.Errorf("due(3) = %v", got)
	}
	if got := s.count(10 * time.Second); got != 500 {
		t.Errorf("count(10s) = %d, want 500", got)
	}
	if got := s.lateness(3, start.Add(59*time.Millisecond)); got != 0 {
		t.Errorf("an early issue is not negative lateness: %v", got)
	}
	if got := s.lateness(3, start.Add(75*time.Millisecond)); got != 15*time.Millisecond {
		t.Errorf("lateness = %v, want 15ms", got)
	}
	// Issued 15 ms late and served in 5: the caller waited 20 from the due time.
	if got := s.latency(3, start.Add(80*time.Millisecond)); got != 20*time.Millisecond {
		t.Errorf("latency from due = %v, want 20ms", got)
	}
}

func TestClosedLoopStopsNearestRoundBoundary(t *testing.T) {
	const round = 2 * time.Second
	if !moreRounds(1, 4, 20*time.Second, round, 10*time.Second) {
		t.Error("the minimum round count outranks the duration")
	}
	if !moreRounds(4, 1, 8*time.Second, round, 10*time.Second) {
		t.Error("at 8s of 10s another 2s round ends nearer the target")
	}
	if moreRounds(5, 1, 9500*time.Millisecond, round, 10*time.Second) {
		t.Error("at 9.5s of 10s another 2s round would end further from the target")
	}
}

func TestClosedLoopRunsWholeRounds(t *testing.T) {
	calls := 0
	loop := &closedLoop{
		classes: []classSpec{{"a", true}, {"b", false}},
		rounds:  [][]opSpec{{{0, 0}, {0, 1}, {1, 0}}},
		do: func(_ int, o opSpec, _ *tracer) opResult {
			calls++
			return opResult{dur: time.Microsecond, ok: true, recall: math.NaN()}
		},
	}
	s := loop.run(time.Nanosecond, 3, nil)
	if calls != 9 || len(s.latMs[0]) != 6 || len(s.latMs[1]) != 3 {
		t.Errorf("3 rounds of 3 ops ran %d ops (%d/%d per class)", calls, len(s.latMs[0]), len(s.latMs[1]))
	}
}

// validMetricName reports whether name fits the grammar BENCHMARK.json
// allows: it starts with a letter or digit and holds at most 64 letters,
// digits, '_', '.' and '-'.
func validMetricName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for i, r := range name {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || r != '_' && r != '.' && r != '-') {
			return false
		}
	}
	return true
}

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"op_p50_ms", "core.approx.delta-eps.guarantee_share", "9lives", "A.b-c_d"} {
		if !validMetricName(ok) {
			t.Errorf("%q should be a valid metric name", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", ".hidden", "-x", "_x", "has space", "slash/name", "pct%", "µs", string(long)} {
		if validMetricName(bad) {
			t.Errorf("%q should not be a valid metric name", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.name) {
			t.Errorf("registry metric %q is outside the grammar", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %q is defined twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// TestBenchmarkJSONInStep keeps the root BENCHMARK.json and the registry the
// program prints from naming the same metrics and workloads.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, doc.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestResultLineShape(t *testing.T) {
	values := map[string]float64{"op_p99_ms": math.Inf(1), "op_p50_ms": 1.25}
	var got struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	line := resultLine(true, 0, 0, endToEnd, values)
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("result line is not JSON: %v\n%s", err, line)
	}
	var keys map[string]json.RawMessage
	_ = json.Unmarshal(line, &keys) // same bytes as above: cannot fail now
	if len(keys) != 4 || got.Correct == nil || got.Attempted == nil || got.Failed == nil || got.Metrics == nil {
		t.Errorf("result line must have exactly correct, attempted, failed, metrics: %s", line)
	}
	if *got.Attempted < 1 {
		t.Errorf("attempted = %d, the contract wants at least 1", *got.Attempted)
	}
	if len(got.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want every one of %d", len(got.Metrics), len(endToEnd))
	}
	if v := got.Metrics["op_p99_ms"].Value; v == nil || *v != math.MaxFloat64 {
		t.Errorf("an infinite latency must print as the largest finite number, got %v", v)
	}
	if got.Metrics["op_p50_ms"].Unit != "ms" || *got.Metrics["op_p50_ms"].Value != 1.25 {
		t.Errorf("op_p50_ms = %+v", got.Metrics["op_p50_ms"])
	}
}

func TestLifePeak(t *testing.T) {
	// Loading set this server's peak, at an unlucky height: the median
	// start-up peak stands in for it.
	if got := lifePeakMB([]float64{100, 120, 137}, 137); got != 120 {
		t.Errorf("lifePeakMB = %v, want the median start-up peak 120", got)
	}
	// Serving reaches 105, above this server's lucky start-up peak but below
	// what loading usually reaches.
	if got := lifePeakMB([]float64{137, 120, 100}, 105); got != 120 {
		t.Errorf("lifePeakMB = %v, want median(137, 120, 105) = 120", got)
	}
	// Serving reaches a level above every start-up peak: that is the peak.
	if got := lifePeakMB([]float64{67, 82, 66}, 73); got != 73 {
		t.Errorf("lifePeakMB = %v, want median(73, 82, 73) = 73", got)
	}
}

func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{1, 1, 1, 1}); got != 0 {
		t.Errorf("iqrShare of a constant = %v, want 0", got)
	}
}

func TestAnswerChecks(t *testing.T) {
	want := []hydra.Match{{ID: 7, Dist: 1.5}, {ID: 3, Dist: 2.5}}
	if !sameAnswer(want, want) {
		t.Error("an answer equals itself")
	}
	ulp := []hydra.Match{{ID: 7, Dist: math.Nextafter(1.5, 2)}, {ID: 3, Dist: 2.5}}
	if sameAnswer(ulp, want) {
		t.Error("sameAnswer must compare distances bit for bit")
	}
	if !closeAnswer(ulp, want) {
		t.Error("closeAnswer must accept a last-place difference")
	}
	if closeAnswer([]hydra.Match{{ID: 8, Dist: 1.5}, {ID: 3, Dist: 2.5}}, want) {
		t.Error("closeAnswer must still compare IDs")
	}
	if got := recallAt([]hydra.Match{{ID: 3}, {ID: 9}}, want); got != 0.5 {
		t.Errorf("recall = %v, want 0.5", got)
	}
	if got := recallAt(nil, want); got != 0 {
		t.Errorf("recall of an empty answer = %v, want 0", got)
	}
	if !wellFormed(nil, 10, 100) || !wellFormed(want, 10, 100) {
		t.Error("short and empty answers are well formed")
	}
	for name, bad := range map[string][]hydra.Match{
		"dead ID":    {{ID: 100, Dist: 1}},
		"duplicate":  {{ID: 1, Dist: 1}, {ID: 1, Dist: 2}},
		"descending": {{ID: 1, Dist: 2}, {ID: 2, Dist: 1}},
	} {
		if wellFormed(bad, 10, 100) {
			t.Errorf("%s answer passed wellFormed", name)
		}
	}
	if wellFormed(want, 1, 100) {
		t.Error("more than k matches passed wellFormed")
	}
}

func TestNaiveKNNOrdersByDistanceThenID(t *testing.T) {
	d, err := hydra.NewDataset([][]float32{{0, 3}, {0, 1}, {0, -1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := []float32{0, 0}
	got := naiveKNN(d, q, 3)
	// NewDataset may normalize rows; order by distance, ties by ID, holds
	// either way.
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist || got[i].Dist == got[i-1].Dist && got[i].ID < got[i-1].ID {
			t.Errorf("naiveKNN out of order: %v", got)
		}
	}
	if len(got) != 3 {
		t.Errorf("naiveKNN returned %d matches, want 3", len(got))
	}
}
