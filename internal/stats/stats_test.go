package stats

import (
	"testing"
	"time"

	"hydra/internal/storage"
)

func TestPruningRatio(t *testing.T) {
	q := QueryStats{RawSeriesExamined: 25, DatasetSize: 100}
	if got := q.PruningRatio(); got != 0.75 {
		t.Errorf("PruningRatio=%v want 0.75", got)
	}
	var zero QueryStats
	if zero.PruningRatio() != 0 {
		t.Errorf("zero-size dataset should give 0")
	}
}

func TestQueryStatsAdd(t *testing.T) {
	a := QueryStats{RawSeriesExamined: 1, DistCalcs: 2, LBCalcs: 3, CPUTime: time.Second, DatasetSize: 10}
	b := QueryStats{RawSeriesExamined: 4, DistCalcs: 5, LBCalcs: 6, CPUTime: time.Second, DatasetSize: 10}
	a.Add(b)
	if a.RawSeriesExamined != 5 || a.DistCalcs != 7 || a.LBCalcs != 9 || a.CPUTime != 2*time.Second {
		t.Errorf("Add wrong: %+v", a)
	}
	if a.String() == "" {
		t.Errorf("String empty")
	}
}

func TestTotalTime(t *testing.T) {
	q := QueryStats{
		CPUTime: 10 * time.Millisecond,
		IO:      storage.Snapshot{RandOps: 2, RandBytes: 0},
	}
	d := storage.DeviceProfile{SeekLatency: 5 * time.Millisecond, ThroughputMBps: 1000}
	if got := q.TotalTime(d); got != 20*time.Millisecond {
		t.Errorf("TotalTime=%v want 20ms", got)
	}
}

func TestExtrapolate10K(t *testing.T) {
	var ws WorkloadStats
	// 100 queries: 90 take 1ms CPU, 5 take 100ms (worst), 5 take 1µs (best).
	for i := 0; i < 90; i++ {
		ws.Queries = append(ws.Queries, QueryStats{CPUTime: time.Millisecond})
	}
	for i := 0; i < 5; i++ {
		ws.Queries = append(ws.Queries, QueryStats{CPUTime: 100 * time.Millisecond})
		ws.Queries = append(ws.Queries, QueryStats{CPUTime: time.Microsecond})
	}
	got := ws.Extrapolate10K(storage.HDD, 10000)
	want := 10 * time.Second // 1ms × 10000
	if got != want {
		t.Errorf("Extrapolate10K=%v want %v", got, want)
	}
	var empty WorkloadStats
	if empty.Extrapolate10K(storage.HDD, 10000) != 0 {
		t.Errorf("empty workload should extrapolate to 0")
	}
	// Fewer than 11 queries: plain mean.
	small := WorkloadStats{Queries: []QueryStats{{CPUTime: time.Millisecond}, {CPUTime: 3 * time.Millisecond}}}
	if got := small.Extrapolate10K(storage.HDD, 10); got != 20*time.Millisecond {
		t.Errorf("small workload extrapolation %v want 20ms", got)
	}
}

func TestWorkloadAggregates(t *testing.T) {
	ws := WorkloadStats{Queries: []QueryStats{
		{RawSeriesExamined: 10, DatasetSize: 100, CPUTime: time.Millisecond},
		{RawSeriesExamined: 30, DatasetSize: 100, CPUTime: 3 * time.Millisecond},
	}}
	if got := ws.MeanPruningRatio(); got != 0.8 {
		t.Errorf("MeanPruningRatio=%v want 0.8", got)
	}
	if got := ws.Total().RawSeriesExamined; got != 40 {
		t.Errorf("Total examined=%d want 40", got)
	}
	if got := ws.TotalTime(storage.HDD); got != 4*time.Millisecond {
		t.Errorf("TotalTime=%v want 4ms", got)
	}
	var empty WorkloadStats
	if empty.MeanPruningRatio() != 0 {
		t.Errorf("empty workload aggregates should be zero")
	}
}

func TestTreeStats(t *testing.T) {
	ts := TreeStats{
		FillFactors: []float64{0.2, 0.9, 0.5},
		LeafDepths:  []int{3, 5, 4},
	}
	if got := ts.MedianFill(); got != 0.5 {
		t.Errorf("MedianFill=%v want 0.5", got)
	}
	if got := ts.MeanFill(); got < 0.53 || got > 0.54 {
		t.Errorf("MeanFill=%v want ~0.533", got)
	}
	if got := ts.MaxDepth(); got != 5 {
		t.Errorf("MaxDepth=%d want 5", got)
	}
	if got := ts.MeanDepth(); got != 4 {
		t.Errorf("MeanDepth=%v want 4", got)
	}
	var empty TreeStats
	if empty.MedianFill() != 0 || empty.MeanFill() != 0 || empty.MaxDepth() != 0 || empty.MeanDepth() != 0 {
		t.Errorf("empty TreeStats aggregates should be zero")
	}
}

func TestBuildStatsTotalTime(t *testing.T) {
	b := BuildStats{CPUTime: time.Second, IO: storage.Snapshot{SeqBytes: 1290 * 1e6}}
	got := b.TotalTime(storage.HDD)
	if got != 2*time.Second {
		t.Errorf("TotalTime=%v want 2s", got)
	}
}
