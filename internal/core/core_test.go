package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"hydra/internal/dataset"
	"hydra/internal/series"
	"hydra/internal/stats"
)

func TestKNNSetBasics(t *testing.T) {
	s := NewKNNSet(2)
	if !math.IsInf(s.Bound(), 1) {
		t.Errorf("empty set bound should be +Inf")
	}
	s.Add(1, 9)
	if !math.IsInf(s.Bound(), 1) {
		t.Errorf("bound should stay +Inf below k entries")
	}
	s.Add(2, 4)
	if s.Bound() != 9 {
		t.Errorf("bound %v want 9", s.Bound())
	}
	if !s.Add(3, 1) {
		t.Errorf("better candidate rejected")
	}
	if s.Bound() != 4 {
		t.Errorf("bound %v want 4", s.Bound())
	}
	if s.Add(4, 100) {
		t.Errorf("worse candidate accepted")
	}
	res := s.Results()
	if len(res) != 2 || res[0].ID != 3 || res[1].ID != 2 {
		t.Errorf("results %v", res)
	}
	if res[0].Dist != 1 || res[1].Dist != 2 {
		t.Errorf("distances not square-rooted: %v", res)
	}
}

func TestKNNSetKBelowOne(t *testing.T) {
	s := NewKNNSet(0)
	s.Add(1, 5)
	if len(s.Results()) != 1 {
		t.Errorf("k<1 should clamp to 1")
	}
}

// TestKNNSetMatchesSortProperty: the set must agree with sorting all
// candidates, including tie handling by ID.
func TestKNNSetMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		dists := make([]float64, n)
		for i := range dists {
			// Coarse values force plenty of ties.
			dists[i] = float64(rng.Intn(10))
		}
		set := NewKNNSet(k)
		for i, d := range dists {
			set.Add(i, d)
		}
		got := set.Results()

		type pair struct {
			id int
			d  float64
		}
		all := make([]pair, n)
		for i, d := range dists {
			all[i] = pair{i, d}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].d != all[b].d {
				return all[a].d < all[b].d
			}
			return all[a].id < all[b].id
		})
		want := all
		if k < n {
			want = all[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].id || math.Abs(got[i].Dist-math.Sqrt(want[i].d)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceKNN(t *testing.T) {
	ds := dataset.RandomWalk(50, 16, 1)
	c := NewCollection(ds)
	q := ds.Series[7].Clone()
	res := BruteForceKNN(c, q, 3)
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].ID != 7 || res[0].Dist != 0 {
		t.Errorf("self-query should find itself first: %v", res[0])
	}
	// Brute force charges a full sequential scan.
	if c.Counters.Snapshot().SeqOps == 0 {
		t.Errorf("brute force should charge sequential reads")
	}
	if c.Counters.Snapshot().RandOps > 1 {
		t.Errorf("brute force should be sequential, got %d seeks", c.Counters.Snapshot().RandOps)
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.WithDefaults(1_000_000)
	if o.LeafSize != 1000 {
		t.Errorf("LeafSize=%d want 1000 (N/1000)", o.LeafSize)
	}
	if o.Segments != 16 || o.SAXBits != 8 || o.SFAAlphabet != 8 || o.VAQBitsPerDim != 8 {
		t.Errorf("paper defaults not applied: %+v", o)
	}
	o2 := Options{LeafSize: 7, Segments: 4}.WithDefaults(100)
	if o2.LeafSize != 7 || o2.Segments != 4 {
		t.Errorf("explicit options overridden: %+v", o2)
	}
	o3 := Options{}.WithDefaults(100)
	if o3.LeafSize < 16 {
		t.Errorf("leaf size should clamp at 16, got %d", o3.LeafSize)
	}
}

var registryRuns int

func TestRegistry(t *testing.T) {
	// A fresh name per run: the registry is process-wide, and go test -cpu
	// runs the test once per value.
	registryRuns++
	name := fmt.Sprintf("test-method-%d", registryRuns)
	Register(name, func(opts Options) Method { return &fakeMethod{} })
	m, err := New(name, Options{})
	if err != nil || m == nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := New("missing", Options{}); err == nil {
		t.Errorf("unknown method should error")
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() missing registered method")
	}
	defer func() {
		if recover() == nil {
			t.Errorf("duplicate registration should panic")
		}
	}()
	Register(name, func(opts Options) Method { return &fakeMethod{} })
}

type fakeMethod struct{ built bool }

func (f *fakeMethod) Name() string              { return "fake" }
func (f *fakeMethod) Build(c *Collection) error { f.built = true; c.File.ChargeFullScan(); return nil }
func (f *fakeMethod) KNN(ctx context.Context, q series.Series, k int) ([]Match, stats.QueryStats, error) {
	return []Match{{ID: 0, Dist: 1}}, stats.QueryStats{RawSeriesExamined: 1}, nil
}

func TestChargeMaterialization(t *testing.T) {
	ds := dataset.RandomWalk(100, 64, 3) // 25,600 bytes
	size := ds.SizeBytes()

	// Unlimited budget: exactly one write.
	c := NewCollection(ds)
	ChargeMaterialization(c, Options{})
	if got := c.Counters.Snapshot().SeqBytes; got != size {
		t.Errorf("unlimited budget moved %d bytes, want %d", got, size)
	}

	// Budget of half the data: two passes → write + 1×(re-read+re-write).
	c2 := NewCollection(ds)
	ChargeMaterialization(c2, Options{MemoryBudgetBytes: size / 2})
	if got := c2.Counters.Snapshot().SeqBytes; got != 3*size {
		t.Errorf("half budget moved %d bytes, want %d", got, 3*size)
	}

	// Budget of a quarter: four passes → write + 3×(re-read+re-write).
	c3 := NewCollection(ds)
	ChargeMaterialization(c3, Options{MemoryBudgetBytes: size / 4})
	if got := c3.Counters.Snapshot().SeqBytes; got != 7*size {
		t.Errorf("quarter budget moved %d bytes, want %d", got, 7*size)
	}

	// Budget >= size: no spill.
	c4 := NewCollection(ds)
	ChargeMaterialization(c4, Options{MemoryBudgetBytes: size})
	if got := c4.Counters.Snapshot().SeqBytes; got != size {
		t.Errorf("exact budget moved %d bytes, want %d", got, size)
	}
}

func TestRunHelpers(t *testing.T) {
	ds := dataset.RandomWalk(20, 8, 2)
	c := NewCollection(ds)
	m := &fakeMethod{}
	bs, err := BuildInstrumented(m, c)
	if err != nil || !bs.Finished {
		t.Fatalf("BuildInstrumented: %v", err)
	}
	if bs.IO.SeqBytes != c.File.SizeBytes() {
		t.Errorf("build IO %d want %d", bs.IO.SeqBytes, c.File.SizeBytes())
	}
	q := ds.Series[0]
	_, qs, err := RunQuery(context.Background(), m, c, q, 1)
	if err != nil {
		t.Fatalf("RunQuery: %v", err)
	}
	if qs.DatasetSize != 20 {
		t.Errorf("DatasetSize=%d", qs.DatasetSize)
	}
	w := dataset.SynthRand(5, 8, 3)
	ws, err := RunWorkload(context.Background(), m, c, w, 1)
	if err != nil || len(ws.Queries) != 5 {
		t.Fatalf("RunWorkload: %v (%d)", err, len(ws.Queries))
	}
}
