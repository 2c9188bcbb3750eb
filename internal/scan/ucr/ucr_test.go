package ucr

import (
	"context"
	"reflect"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/stats"
	"hydra/internal/storage"
)

func TestPureSequentialAccess(t *testing.T) {
	ds := dataset.RandomWalk(1000, 128, 1)
	m := New(core.Options{})
	coll := core.NewCollection(ds)
	if err := m.Build(coll); err != nil {
		t.Fatal(err)
	}
	q := dataset.SynthRand(1, 128, 2).Queries[0]
	_, qs, err := core.RunQuery(context.Background(), m, coll, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if qs.IO.RandOps > 1 {
		t.Errorf("sequential scan produced %d seeks", qs.IO.RandOps)
	}
	if qs.IO.SeqBytes+qs.IO.RandBytes != ds.SizeBytes() {
		t.Errorf("scan moved %d bytes, want exactly the file size %d",
			qs.IO.SeqBytes+qs.IO.RandBytes, ds.SizeBytes())
	}
	if qs.RawSeriesExamined != int64(ds.Len()) {
		t.Errorf("examined %d of %d", qs.RawSeriesExamined, ds.Len())
	}
}

func TestStableCostAcrossQueries(t *testing.T) {
	// The paper notes the UCR-Suite's I/O is identical for every query (its
	// boxplot is a flat line).
	ds := dataset.RandomWalk(500, 64, 3)
	m := New(core.Options{})
	coll := core.NewCollection(ds)
	if err := m.Build(coll); err != nil {
		t.Fatal(err)
	}
	var first int64 = -1
	for _, q := range dataset.SynthRand(5, 64, 4).Queries {
		_, qs, err := core.RunQuery(context.Background(), m, coll, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = qs.IO.SeqBytes
		} else if qs.IO.SeqBytes != first {
			t.Errorf("sequential bytes vary across queries: %d vs %d", qs.IO.SeqBytes, first)
		}
	}
}

func TestUnbuiltErrors(t *testing.T) {
	m := New(core.Options{})
	if _, _, err := m.KNN(context.Background(), dataset.SynthRand(1, 8, 1).Queries[0], 1); err == nil {
		t.Errorf("unbuilt scan should error")
	}
}

// TestScanCountersPerRow pins what the run loop charges against what the
// per-row loop it replaced charged: every series is one distance
// calculation, one examined series and one read — n sequential reads for n
// series, with no seek whichever goroutine claimed which chunk — for the
// serial scan, the 2-worker scan and the stream, over a collection whose
// size is no multiple of core.CancelBlock. All of them answer alike.
func TestScanCountersPerRow(t *testing.T) {
	const n, l = 2*core.CancelBlock + 452, 64
	coll := core.NewCollection(dataset.RandomWalk(n, l, 7))
	q := dataset.SynthRand(1, l, 8).Queries[0]
	rowBytes := int64(l * 4)
	serialIO := storage.Snapshot{SeqOps: n, SeqBytes: n * rowBytes}
	var want []core.Match
	for _, tc := range []struct {
		name    string
		workers int
		stream  bool
		io      storage.Snapshot
	}{
		{"serial", 1, false, serialIO},
		{"2 workers", 2, false, serialIO},
		{"stream", 1, true, serialIO},
		{"stream, 2 workers", 2, true, serialIO},
	} {
		m := New(core.Options{Workers: tc.workers})
		if err := m.Build(coll); err != nil {
			t.Fatal(err)
		}
		var got []core.Match
		var qs stats.QueryStats
		var err error
		if tc.stream {
			got, qs, err = m.KNNStream(context.Background(), q, 5, func(core.Match) {})
		} else {
			got, qs, err = m.KNN(context.Background(), q, 5)
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if qs.DistCalcs != n || qs.RawSeriesExamined != n {
			t.Errorf("%s: %d distance calculations, %d examined, want %d each", tc.name, qs.DistCalcs, qs.RawSeriesExamined, n)
		}
		if qs.IO != tc.io {
			t.Errorf("%s: I/O %v, want %v", tc.name, qs.IO, tc.io)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: answer %v, serial scan %v", tc.name, got, want)
		}
	}
}
