package hydra_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hydra"
	"hydra/internal/core"
	"hydra/internal/dataset"
)

// approxCapable are the methods that answer the full approximate mode
// lattice (core.ApproxSearcher); the conformance suite below runs per
// method × mode.
var approxCapable = []string{"ADS+", "DSTree", "iSAX2+", "SFA", "VA+file"}

// approxOracle builds one method directly in the internal layers over the
// same generated collection the facade engines use (same generator, same
// seed), so facade answers can be compared bit-for-bit against core calls.
func approxOracle(t *testing.T, name string, n, length int, seed int64) (core.Method, *core.Collection) {
	t.Helper()
	m, err := core.New(name, core.Options{LeafSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	coll := core.NewCollection(dataset.RandomWalk(n, length, seed))
	if err := m.Build(coll); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m, coll
}

// TestApproxExactModeBitIdentical pins conformance point (a): an engine
// explicitly configured WithApproxMode("exact") answers bit-identically to
// a default engine (the pre-refactor query path) and agrees with the
// brute-force oracle — the approximate machinery must cost exact answers
// nothing, not even a ULP.
func TestApproxExactModeBitIdentical(t *testing.T) {
	d := testData(t)
	ods := dataset.RandomWalk(5000, 64, 17)
	coll := core.NewCollection(ods)
	queries := hydra.RandomWorkload(5, 64, 31)
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			plain := engineFor(t, name, d)
			exact := engineFor(t, name, d, hydra.WithApproxMode("exact"))
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.Query(qi)
				want, _, err := plain.QueryWithStats(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, qs, err := exact.QueryWithStats(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("q%d: exact mode %v != default %v", qi, got, want)
				}
				if qs.EarlyStop != "" {
					t.Fatalf("q%d: exact mode reported early stop %q", qi, qs.EarlyStop)
				}
				bf := core.BruteForceKNN(coll, q, 3)
				if got[0].ID != bf[0].ID {
					t.Fatalf("q%d: top-1 %d, brute force %d", qi, got[0].ID, bf[0].ID)
				}
			}
		})
	}
}

// TestApproxDegenerateSpecsAreExact pins conformance point (b): a δ-ε spec
// with ε=0, δ=1 — and a budget spec with no budgets — must run the shared
// approximate traversal and still produce bit-identical answers to KNN, by
// construction (the relaxation factor is exactly 1 and no stop can fire).
func TestApproxDegenerateSpecsAreExact(t *testing.T) {
	queries := dataset.Ctrl(dataset.RandomWalk(1500, 64, 7), 6, 1.0, 8).Queries
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			m, _ := approxOracle(t, name, 1500, 64, 7)
			as, ok := m.(core.ApproxSearcher)
			if !ok {
				t.Fatalf("%s does not implement ApproxSearcher", name)
			}
			for _, spec := range []core.ApproxSpec{
				{Mode: core.ModeDeltaEps, Epsilon: 0, Delta: 1},
				{Mode: core.ModeBudget},
			} {
				for qi, q := range queries {
					want, wqs, err := m.KNN(context.Background(), q, 3)
					if err != nil {
						t.Fatal(err)
					}
					got, gqs, err := as.KNNApprox(context.Background(), q, 3, spec)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("q%d spec %+v: %v != exact %v", qi, spec, got, want)
					}
					if gqs.NodesVisited != wqs.NodesVisited {
						t.Fatalf("q%d spec %+v: visited %d nodes, exact visited %d",
							qi, spec, gqs.NodesVisited, wqs.NodesVisited)
					}
				}
			}
		})
	}
}

// TestApproxNgMatchesApproxKNN pins conformance point (c): an ng-mode
// engine answers exactly what the method's own first-leaf search
// (KNNApprox in ModeNG, the query head start's source) answers — ng mode IS
// the approximate descent, not a lookalike.
func TestApproxNgMatchesApproxKNN(t *testing.T) {
	d := testData(t)
	queries := hydra.RandomWorkload(5, 64, 37)
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			e := engineFor(t, name, d, hydra.WithApproxMode("ng"))
			m, _ := approxOracle(t, name, 5000, 64, 17)
			as, ok := m.(core.ApproxSearcher)
			if !ok {
				t.Fatalf("%s does not implement ApproxSearcher", name)
			}
			for qi := 0; qi < queries.Len(); qi++ {
				q := queries.Query(qi)
				got, qs, err := e.QueryWithStats(context.Background(), q, 3)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := as.KNNApprox(context.Background(), q, 3, core.ApproxSpec{Mode: core.ModeNG})
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("q%d: ng engine %v != method's ng search %v", qi, got, want)
				}
				if qs.Mode != "ng" {
					t.Fatalf("q%d: stats mode %q, want ng", qi, qs.Mode)
				}
				// A query whose word path has no leaf legitimately answers
				// empty with zero visits; any non-empty answer came from a
				// visited leaf and must say so.
				if len(got) > 0 && qs.NodesVisited == 0 {
					t.Fatalf("q%d: non-empty ng answer reported no node visits", qi)
				}
			}
		})
	}
}

// TestApproxDeltaEpsGuarantee pins conformance point (d): over a seeded
// 200-query controlled workload, the fraction of queries whose answer is
// within (1+ε) of the true k-th neighbor must be at least δ — the measured
// guarantee meets the configured one, per method.
func TestApproxDeltaEpsGuarantee(t *testing.T) {
	const (
		nq    = 200
		k     = 3
		eps   = 1.0
		delta = 0.9
	)
	ds := dataset.RandomWalk(2000, 64, 41)
	queries := dataset.Ctrl(ds, nq, 1.0, 42).Queries
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			m, coll := approxOracle(t, name, 2000, 64, 41)
			as := m.(core.ApproxSearcher)
			spec := core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: eps, Delta: delta, Seed: 43}
			satisfied, recallSum := 0, 0.0
			for _, q := range queries {
				exact := core.BruteForceKNN(coll, q, k)
				got, _, err := as.KNNApprox(context.Background(), q, k, spec)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Fatal("empty answer")
				}
				if got[len(got)-1].Dist <= (1+eps)*exact[len(exact)-1].Dist+1e-9 {
					satisfied++
				}
				truth := map[int]bool{}
				for _, mt := range exact {
					truth[mt.ID] = true
				}
				hits := 0
				for _, mt := range got {
					if truth[mt.ID] {
						hits++
					}
				}
				recallSum += float64(hits) / float64(len(exact))
			}
			if frac := float64(satisfied) / nq; frac < delta {
				t.Fatalf("guarantee held for %.3f of queries, want >= %v", frac, delta)
			}
			// Recall is not part of the δ-ε contract, but a collapse to
			// near-zero recall would make the mode useless; the controlled
			// workload stays far above this floor in practice.
			if recall := recallSum / nq; recall < 0.5 {
				t.Fatalf("recall %.3f collapsed", recall)
			}
		})
	}
}

// TestApproxEpsilonMonotone is the property check on the pruning predicate:
// growing ε (δ=1, so only the relaxed predicate acts) never visits MORE
// nodes, and ε=0 never prunes the true nearest neighbor — the two
// monotonicity facts the δ-ε guarantee rests on.
func TestApproxEpsilonMonotone(t *testing.T) {
	ds := dataset.RandomWalk(1500, 64, 51)
	queries := dataset.Ctrl(ds, 4, 0.8, 52).Queries
	grid := []float64{0, 0.1, 0.5, 1, 2, 4}
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			m, coll := approxOracle(t, name, 1500, 64, 51)
			as := m.(core.ApproxSearcher)
			for qi, q := range queries {
				prev := int64(-1)
				for _, eps := range grid {
					spec := core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: eps, Delta: 1}
					got, qs, err := as.KNNApprox(context.Background(), q, 1, spec)
					if err != nil {
						t.Fatal(err)
					}
					if prev >= 0 && qs.NodesVisited > prev {
						t.Fatalf("q%d ε=%g visited %d nodes, smaller ε visited %d",
							qi, eps, qs.NodesVisited, prev)
					}
					prev = qs.NodesVisited
					if eps == 0 {
						bf := core.BruteForceKNN(coll, q, 1)
						if got[0].ID != bf[0].ID {
							t.Fatalf("q%d ε=0 pruned the true 1-NN: got %d want %d",
								qi, got[0].ID, bf[0].ID)
						}
					}
				}
			}
		})
	}
}

// TestApproxNodeBudget pins the budget mode: the traversal respects the
// node budget (visits ≤ budget, EarlyStop "nodes" when it bites), visits
// monotonically more as the budget grows, and converges to the exact
// answer once the budget stops binding.
func TestApproxNodeBudget(t *testing.T) {
	ds := dataset.RandomWalk(1500, 64, 61)
	q := dataset.Ctrl(ds, 1, 0.5, 62).Queries[0]
	for _, name := range approxCapable {
		t.Run(name, func(t *testing.T) {
			m, _ := approxOracle(t, name, 1500, 64, 61)
			as := m.(core.ApproxSearcher)
			exact, eqs, err := m.KNN(context.Background(), q, 3)
			if err != nil {
				t.Fatal(err)
			}
			prev := int64(-1)
			for _, budget := range []int64{1, 4, 16, 0} {
				spec := core.ApproxSpec{Mode: core.ModeBudget, NodeBudget: budget}
				got, qs, err := as.KNNApprox(context.Background(), q, 3, spec)
				if err != nil {
					t.Fatal(err)
				}
				if budget > 0 && qs.NodesVisited > budget {
					t.Fatalf("budget %d: visited %d nodes", budget, qs.NodesVisited)
				}
				if budget > 0 && qs.NodesVisited == budget && qs.EarlyStop != "nodes" {
					t.Fatalf("budget %d bound but EarlyStop = %q", budget, qs.EarlyStop)
				}
				if qs.NodesVisited < prev {
					t.Fatalf("budget %d visited %d nodes, smaller budget visited %d",
						budget, qs.NodesVisited, prev)
				}
				prev = qs.NodesVisited
				if budget == 0 {
					if fmt.Sprint(got) != fmt.Sprint(exact) {
						t.Fatalf("unlimited budget: %v != exact %v", got, exact)
					}
					if qs.NodesVisited != eqs.NodesVisited {
						t.Fatalf("unlimited budget visited %d nodes, exact %d",
							qs.NodesVisited, eqs.NodesVisited)
					}
				}
			}
		})
	}
}

// TestApproxUnsupportedMethods pins the failure taxonomy: a non-exact mode
// against a method without the lattice fails with ErrApproxUnsupported —
// typed, matchable, and naming the method.
func TestApproxUnsupportedMethods(t *testing.T) {
	d := testData(t)
	for _, name := range []string{"UCR-Suite", "M-tree"} {
		e := engineFor(t, name, d, hydra.WithApproxMode("ng"))
		_, err := e.Query(context.Background(), d.Series(0), 1)
		if !errors.Is(err, hydra.ErrApproxUnsupported) {
			t.Fatalf("%s: error %v, want ErrApproxUnsupported", name, err)
		}
	}
}

// TestApproxOptionValidation pins construction-time validation: a bad mode
// name or out-of-range parameter fails the constructor, not the first
// query.
func TestApproxOptionValidation(t *testing.T) {
	d := testData(t)
	cases := [][]hydra.Option{
		{hydra.WithApproxMode("fuzzy")},
		{hydra.WithApproxMode("delta-eps"), hydra.WithEpsilon(-1)},
		{hydra.WithApproxMode("delta-eps"), hydra.WithDelta(1.5)},
		{hydra.WithApproxMode("budget"), hydra.WithNodeBudget(-3)},
	}
	for i, opts := range cases {
		_, err := hydra.BuildIndex(context.Background(), "DSTree",
			append([]hydra.Option{hydra.WithData(d), hydra.WithLeafSize(64)}, opts...)...)
		if err == nil {
			t.Fatalf("case %d: bad approx options accepted", i)
		}
	}
}

// TestApproxWithQueryOptions pins the derived-engine mechanism behind
// per-request serve modes: deriving swaps the answering mode without
// touching the parent, and deriving with no options returns to exact.
func TestApproxWithQueryOptions(t *testing.T) {
	d := testData(t)
	base := engineFor(t, "DSTree", d)
	q := d.Series(9)
	exactAns, err := base.Query(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	ng, err := base.WithQueryOptions(hydra.WithApproxMode("ng"))
	if err != nil {
		t.Fatal(err)
	}
	_, qs, err := ng.QueryWithStats(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if qs.Mode != "ng" {
		t.Fatalf("derived engine answered in mode %q, want ng", qs.Mode)
	}
	// The parent is untouched.
	again, _, err := base.QueryWithStats(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again) != fmt.Sprint(exactAns) {
		t.Fatalf("parent engine changed: %v != %v", again, exactAns)
	}
	// Deriving from the ng engine with no options returns to exact.
	back, err := ng.WithQueryOptions()
	if err != nil {
		t.Fatal(err)
	}
	backAns, _, err := back.QueryWithStats(context.Background(), q, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(backAns) != fmt.Sprint(exactAns) {
		t.Fatalf("re-derived exact engine: %v != %v", backAns, exactAns)
	}
	if _, err := base.WithQueryOptions(hydra.WithApproxMode("fuzzy")); err == nil {
		t.Fatal("bad mode accepted by WithQueryOptions")
	}
}

// TestApproxStreamTagged pins the stream contract fix: every progressive
// update from the approximate head-start carries Mode "ng" (it is an
// unguaranteed answer and must not be mistaken for a scan's exact
// best-so-far), and the terminal event is tagged with the answering mode.
func TestApproxStreamTagged(t *testing.T) {
	d := testData(t)
	q := d.Series(3)

	exact := engineFor(t, "DSTree", d)
	sawHeadStart := false
	for u := range exact.QueryStream(context.Background(), q, 3) {
		if !u.Final {
			if u.Mode != "ng" {
				t.Fatalf("progressive update from head-start tagged %q, want ng", u.Mode)
			}
			sawHeadStart = true
			continue
		}
		if u.Mode != "exact" || u.Err != nil {
			t.Fatalf("terminal event mode %q err %v, want exact/nil", u.Mode, u.Err)
		}
	}
	if !sawHeadStart {
		t.Fatal("no tagged head-start update observed")
	}

	ng := engineFor(t, "DSTree", d, hydra.WithApproxMode("ng"))
	finals := 0
	for u := range ng.QueryStream(context.Background(), q, 3) {
		if !u.Final {
			t.Fatalf("ng engine emitted a progressive update: %+v", u)
		}
		finals++
		if u.Mode != "ng" || u.Stats.Mode != "ng" {
			t.Fatalf("ng terminal tagged %q / stats %q, want ng/ng", u.Mode, u.Stats.Mode)
		}
	}
	if finals != 1 {
		t.Fatalf("%d terminal events, want 1", finals)
	}
}

// FuzzApproxPruneMonotone fuzzes the pruning predicate itself: for any
// (lb, bound) and ε₁ ≤ ε₂, a subtree pruned at ε₁ is pruned at ε₂
// (monotonicity — larger ε never visits more), and at ε=0 the predicate is
// exactly the unrelaxed lb > bound (never prunes a true improver, nor a tie
// that a smaller ID may win).
func FuzzApproxPruneMonotone(f *testing.F) {
	f.Add(1.0, 2.0, 0.1, 0.5)
	f.Add(3.0, 2.0, 0.0, 1.0)
	f.Add(0.5, 0.5, 0.2, 0.2)
	f.Fuzz(func(t *testing.T, lb, bound, e1, e2 float64) {
		if lb < 0 || bound < 0 || e1 < 0 || e2 < 0 ||
			lb > 1e12 || bound > 1e12 || e1 > 64 || e2 > 64 {
			t.Skip()
		}
		if e1 > e2 {
			e1, e2 = e2, e1
		}
		p0 := core.NewPruner(core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: 0, Delta: 1}, 0)
		p1 := core.NewPruner(core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: e1, Delta: 1}, 0)
		p2 := core.NewPruner(core.ApproxSpec{Mode: core.ModeDeltaEps, Epsilon: e2, Delta: 1}, 0)
		if p0.Prune(lb, bound) != (lb > bound) {
			t.Fatalf("ε=0 predicate diverged from lb > bound at (%g, %g)", lb, bound)
		}
		if p1.Prune(lb, bound) && !p2.Prune(lb, bound) {
			t.Fatalf("pruned at ε=%g but not at larger ε=%g (lb=%g bound=%g)", e1, e2, lb, bound)
		}
	})
}
