package methods

import (
	"context"
	"math"
	"testing"

	"hydra/internal/core"
	"hydra/internal/dataset"
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
