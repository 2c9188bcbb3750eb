package methods

import (
	"context"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/storage"
)

// walkCounters is one query's cost record, as pinned below.
type walkCounters struct {
	Raw, LB, Dist, Nodes int64
	IO                   storage.Snapshot
}

// TestWalkCountersPinned pins the per-query counters of the two trees no
// frozen reference search covers, R*-tree and ADS-FULL, on a fixed seed.
// iSAX2+, SFA and DSTree are pinned by their referenceSearch files through
// difftest.MemberFilterChangesNothing instead.
//
// The Raw / LB / Dist / IO columns were recorded before both trees moved
// onto core.BestFirst and must never move. Nodes is the one column the move
// changed: the hand-written loops counted no visits (0), the walk counts
// every popped node and leaf like every other tree.
func TestWalkCountersPinned(t *testing.T) {
	ds := dataset.RandomWalk(3000, 128, 21)
	queries := dataset.Ctrl(ds, 4, 1.0, 22).Queries
	queries = append(queries, dataset.SynthRand(2, 128, 23).Queries...)
	for _, tc := range []struct {
		name string
		want []walkCounters
	}{
		{"R*-tree", []walkCounters{
			{103, 1734, 103, 70, storage.Snapshot{RandOps: 15, RandBytes: 52736}},
			{225, 2456, 225, 100, storage.Snapshot{RandOps: 35, RandBytes: 115200}},
			{199, 2748, 199, 111, storage.Snapshot{RandOps: 36, RandBytes: 101888}},
			{391, 2287, 391, 92, storage.Snapshot{RandOps: 42, RandBytes: 200192}},
			{52, 1321, 52, 54, storage.Snapshot{RandOps: 11, RandBytes: 26624}},
			{47, 2167, 47, 88, storage.Snapshot{RandOps: 13, RandBytes: 24064}},
		}},
		{"ADS-FULL", []walkCounters{
			{1064, 1299, 1064, 425, storage.Snapshot{RandOps: 410, RandBytes: 544768}},
			{2421, 1311, 2421, 1138, storage.Snapshot{RandOps: 1117, RandBytes: 1239552}},
			{3000, 1327, 3000, 1328, storage.Snapshot{RandOps: 1299, RandBytes: 1536000}},
			{1994, 1299, 1994, 956, storage.Snapshot{RandOps: 941, RandBytes: 1020928}},
			{660, 1297, 660, 110, storage.Snapshot{RandOps: 96, RandBytes: 337920}},
			{1731, 1303, 1731, 770, storage.Snapshot{RandOps: 754, RandBytes: 886272}},
		}},
	} {
		m, err := core.New(tc.name, core.Options{LeafSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		coll := core.NewCollection(ds)
		if err := m.Build(coll); err != nil {
			t.Fatal(err)
		}
		for qi, want := range tc.want {
			_, qs, err := core.RunQuery(context.Background(), m, coll, queries[qi], 3)
			if err != nil {
				t.Fatal(err)
			}
			got := walkCounters{qs.RawSeriesExamined, qs.LBCalcs, qs.DistCalcs, qs.NodesVisited, qs.IO}
			if got != want {
				t.Errorf("%s q%d: counters %+v, pinned %+v", tc.name, qi, got, want)
			}
		}
	}
}
