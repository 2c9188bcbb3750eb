package methods

import (
	"context"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
	"hydra/internal/series"
)

// buildAll instantiates and builds every registered method over ds.
func buildAll(t *testing.T, ds *dataset.Dataset, opts core.Options) map[string]*builtMethod {
	t.Helper()
	out := map[string]*builtMethod{}
	for _, name := range All() {
		m, err := core.New(name, opts)
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		c := core.NewCollection(ds)
		if err := m.Build(c); err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		out[name] = &builtMethod{m: m, c: c}
	}
	return out
}

type builtMethod struct {
	m core.Method
	c *core.Collection
}

// TestAllMethodsRegistered ensures the umbrella import wires up the ten
// methods of the paper.
func TestAllMethodsRegistered(t *testing.T) {
	want := []string{"UCR-Suite", "MASS", "Stepwise", "R*-tree", "M-tree",
		"VA+file", "SFA", "DSTree", "iSAX2+", "ADS+"}
	got := map[string]bool{}
	for _, n := range All() {
		got[n] = true
	}
	for _, n := range want {
		if !got[n] {
			t.Errorf("method %s not registered", n)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registered %d methods, want %d: %v", len(All()), len(want), All())
	}
}

// TestExactnessAgainstBruteForce is the central correctness property of the
// whole suite: every method must return exactly the brute-force k-NN
// answers (the paper compares exact methods only).
func TestExactnessAgainstBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  func(n, l int, seed int64) *dataset.Dataset
		n, l int
	}{
		{"randomwalk-64", dataset.RandomWalk, 200, 64},
		{"seismic-128", dataset.Seismic, 150, 128},
		{"deep1b-96", dataset.Deep1B, 150, 96}, // non-power-of-two length
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ds := tc.gen(tc.n, tc.l, 42)
			queries := append(
				dataset.SynthRand(4, tc.l, 7).Queries,
				dataset.Ctrl(ds, 4, 2.0, 8).Queries...,
			)
			built := buildAll(t, ds, core.Options{LeafSize: 16})
			for name, bm := range built {
				for qi, q := range queries {
					for _, k := range []int{1, 5} {
						want := core.BruteForceKNN(bm.c, q, k)
						got, _, err := bm.m.KNN(context.Background(), q, k)
						if err != nil {
							t.Fatalf("%s query %d k=%d: %v", name, qi, k, err)
						}
						if len(got) != len(want) {
							t.Fatalf("%s query %d k=%d: got %d matches, want %d",
								name, qi, k, len(got), len(want))
						}
						for i := range want {
							if math.Abs(got[i].Dist-want[i].Dist) > 1e-4*(1+want[i].Dist) {
								t.Errorf("%s query %d k=%d match %d: dist %.8f, want %.8f (id %d vs %d)",
									name, qi, k, i, got[i].Dist, want[i].Dist, got[i].ID, want[i].ID)
							}
						}
						// IDs must agree except on exact distance ties.
						for i := range want {
							if got[i].ID != want[i].ID &&
								math.Abs(got[i].Dist-want[i].Dist) > 1e-6*(1+want[i].Dist) {
								t.Errorf("%s query %d k=%d match %d: id %d, want %d",
									name, qi, k, i, got[i].ID, want[i].ID)
							}
						}
					}
				}
			}
		})
	}
}

// TestRefinedAnswersBitIdenticalToScan: every method that refines candidates
// on raw series runs the one reordered early-abandoning kernel, so its
// answers carry the UCR-Suite scan's IDs and distance bits — the M-tree
// included, which used to square a square root over a plain-order sum.
// (core.BruteForceKNN sums in series order and differs from all of them in
// the last place; MASS derives distances from a convolution.)
func TestRefinedAnswersBitIdenticalToScan(t *testing.T) {
	ds := dataset.RandomWalk(400, 128, 17)
	queries := append(
		dataset.SynthRand(6, 128, 18).Queries,
		dataset.Ctrl(ds, 6, 1.0, 19).Queries...,
	)
	built := buildAll(t, ds, core.Options{LeafSize: 16})
	scan := built["UCR-Suite"].m
	for name, bm := range built {
		if name == "MASS" {
			continue
		}
		for qi, q := range queries {
			for _, k := range []int{1, 10} {
				want, _, err := scan.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := bm.m.KNN(context.Background(), q, k)
				if err != nil {
					t.Fatalf("%s query %d k=%d: %v", name, qi, k, err)
				}
				if len(got) != len(want) {
					t.Fatalf("%s query %d k=%d: %d matches, scan has %d", name, qi, k, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Errorf("%s query %d k=%d match %d: (%d, %x), scan (%d, %x)", name, qi, k, i,
							got[i].ID, math.Float64bits(got[i].Dist), want[i].ID, math.Float64bits(want[i].Dist))
					}
				}
			}
		}
	}
}

// TestKLargerThanCollection checks the degenerate case k >= N.
func TestKLargerThanCollection(t *testing.T) {
	ds := dataset.RandomWalk(10, 32, 1)
	built := buildAll(t, ds, core.Options{LeafSize: 4})
	q := dataset.SynthRand(1, 32, 2).Queries[0]
	for name, bm := range built {
		got, _, err := bm.m.KNN(context.Background(), q, 25)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != 10 {
			t.Errorf("%s: got %d matches for k=25 over 10 series, want 10", name, len(got))
		}
	}
}

// TestQueryLengthMismatch checks that every method rejects ill-formed
// queries instead of panicking.
func TestQueryLengthMismatch(t *testing.T) {
	ds := dataset.RandomWalk(30, 32, 1)
	built := buildAll(t, ds, core.Options{LeafSize: 8})
	q := dataset.SynthRand(1, 64, 2).Queries[0]
	for name, bm := range built {
		if _, _, err := bm.m.KNN(context.Background(), q, 1); err == nil {
			t.Errorf("%s: expected error for mismatched query length", name)
		}
	}
}

// TestPruningRatioBounds checks that reported pruning ratios are sane and
// that the sequential scans examine everything.
func TestPruningRatioBounds(t *testing.T) {
	ds := dataset.RandomWalk(300, 64, 3)
	built := buildAll(t, ds, core.Options{LeafSize: 32})
	q := dataset.SynthRand(1, 64, 4).Queries[0]
	for name, bm := range built {
		_, qs, err := core.RunQuery(context.Background(), bm.m, bm.c, q, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := qs.PruningRatio()
		if p < 0 || p > 1 {
			t.Errorf("%s: pruning ratio %f out of [0,1]", name, p)
		}
		if (name == "UCR-Suite" || name == "MASS") && p != 0 {
			t.Errorf("%s: sequential scan must examine all series, pruning=%f", name, p)
		}
	}
}

// approxMethods are the methods answering ng-approximate queries: the four
// Table 1 marks plus the VA+file, which this suite extends with the
// filter-file analog of a first-leaf visit (see ApproxCapable).
var approxMethods = ApproxCapable()

// ngSearch answers q in ng mode through the method's approximate entry point.
func ngSearch(t *testing.T, m core.Method, q series.Series, k int) []core.Match {
	t.Helper()
	as, ok := m.(core.ApproxSearcher)
	if !ok {
		t.Fatalf("%s does not implement ApproxSearcher", m.Name())
	}
	res, _, err := as.KNNApprox(context.Background(), q, k, core.ApproxSpec{Mode: core.ModeNG})
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return res
}

// TestApproxKNNIsUpperBound: ng-approximate answers can never beat the exact
// nearest neighbor, must come from the collection, and repeating the exact
// query afterwards must still be exact (no state corruption).
func TestApproxKNNIsUpperBound(t *testing.T) {
	ds := dataset.RandomWalk(800, 64, 13)
	queries := dataset.SynthRand(5, 64, 14).Queries
	for _, name := range approxMethods {
		m, err := core.New(name, core.Options{LeafSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		coll := core.NewCollection(ds)
		if err := m.Build(coll); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range queries {
			exact := core.BruteForceKNN(coll, q, 1)
			approx := ngSearch(t, m, q, 1)
			if len(approx) > 0 {
				if approx[0].Dist < exact[0].Dist-1e-9 {
					t.Fatalf("%s: approximate answer %g beats exact %g",
						name, approx[0].Dist, exact[0].Dist)
				}
				if approx[0].ID < 0 || approx[0].ID >= ds.Len() {
					t.Fatalf("%s: bogus ID %d", name, approx[0].ID)
				}
			}
			got, _, err := m.KNN(context.Background(), q, 1)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if math.Abs(got[0].Dist-exact[0].Dist) > 1e-9*(1+exact[0].Dist) {
				t.Fatalf("%s: exact query after approximate is wrong", name)
			}
		}
	}
}

// TestApproxSelfQueries: on self-queries (a series drawn from the
// collection), the approximate search should usually find the series itself
// — its own leaf contains it.
func TestApproxSelfQueries(t *testing.T) {
	ds := dataset.RandomWalk(600, 64, 15)
	for _, name := range approxMethods {
		m, _ := core.New(name, core.Options{LeafSize: 32})
		coll := core.NewCollection(ds)
		if err := m.Build(coll); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hits := 0
		const trials = 30
		for i := 0; i < trials; i++ {
			id := (i * 97) % ds.Len()
			res := ngSearch(t, m, ds.Series[id].Clone(), 1)
			if len(res) > 0 && res[0].Dist < 1e-6 {
				hits++
			}
		}
		if hits < trials*9/10 {
			t.Errorf("%s: approximate self-query found the series only %d/%d times", name, hits, trials)
		}
	}
}

// TestEpsSavesWork: a larger ε must not compute more distances than exact
// search. δ = 0 keeps the probabilistic stop off, so the ε relaxation of the
// pruning predicate is the only difference between the two runs.
func TestEpsSavesWork(t *testing.T) {
	ds := dataset.SALD(1500, 64, 18)
	q := dataset.Ctrl(ds, 1, 0.3, 19).Queries[0]
	for _, name := range approxMethods {
		m, _ := core.New(name, core.Options{LeafSize: 8})
		if err := m.Build(core.NewCollection(ds)); err != nil {
			t.Fatal(err)
		}
		as := m.(core.ApproxSearcher)
		_, qsExact, err := as.KNNApprox(context.Background(), q, 1, core.ApproxSpec{Mode: core.ModeDeltaEps})
		if err != nil {
			t.Fatal(err)
		}
		_, qsLoose, err := as.KNNApprox(context.Background(), q, 1, core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: 2})
		if err != nil {
			t.Fatal(err)
		}
		if qsLoose.DistCalcs > qsExact.DistCalcs {
			t.Errorf("%s: eps=2 computed more distances (%d) than exact (%d)",
				name, qsLoose.DistCalcs, qsExact.DistCalcs)
		}
	}
}
