package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"hydra/internal/series"
	"hydra/internal/stats"
)

// ErrApproxUnsupported reports an approximate-mode query against a method
// that only answers exact queries (match with errors.Is). The five methods
// with lower-bounding index structures — ADS+, DSTree, iSAX2+, SFA, VA+file
// — implement the full mode lattice; the scans and exact-only trees do not.
var ErrApproxUnsupported = errors.New("core: approximate query mode not supported")

// ApproxMode selects the guarantee class of a query — the mode lattice of
// the sequel paper ("Return of the Lernaean Hydra"): exact answers, then
// three ways to trade answer quality for traversal work.
type ApproxMode uint8

const (
	// ModeExact is the default: the true k nearest neighbors, bit-identical
	// to Method.KNN.
	ModeExact ApproxMode = iota
	// ModeNG is ng-approximate search (Definition 7 of the source paper):
	// one root-to-leaf descent, the first leaf's best matches, no error
	// bound. It is also the head start QueryStream and the partial-answer
	// path run before an exact query.
	ModeNG
	// ModeDeltaEps is δ-ε-approximate search: lower-bound pruning relaxed by
	// (1+ε) so the answer's k-th distance is within (1+ε) of the true one,
	// with a PAC-style probabilistic stop that holds the guarantee with
	// probability at least δ (δ = 1 makes it deterministic). ε = 0, δ = 1
	// degenerates to exact search with bit-identical answers.
	ModeDeltaEps
	// ModeBudget is early-stopped exact search: the traversal runs the exact
	// algorithm but stops after the configured node budget, returning the
	// best-so-far. No error bound; the answer converges to exact as the
	// budget grows.
	ModeBudget
)

// String returns the mode's wire name, as accepted by ParseApproxMode and
// reported in stats.QueryStats.Mode.
func (m ApproxMode) String() string {
	switch m {
	case ModeNG:
		return "ng"
	case ModeDeltaEps:
		return "delta-eps"
	case ModeBudget:
		return "budget"
	default:
		return "exact"
	}
}

// ParseApproxMode resolves a mode's wire name ("exact", "ng", "delta-eps",
// "budget"; "" means exact) — the flag/request-field bridge shared by the
// CLIs and hydra-serve.
func ParseApproxMode(s string) (ApproxMode, error) {
	switch s {
	case "", "exact":
		return ModeExact, nil
	case "ng", "approx":
		return ModeNG, nil
	case "delta-eps", "deltaeps", "eps":
		return ModeDeltaEps, nil
	case "budget":
		return ModeBudget, nil
	}
	return ModeExact, fmt.Errorf("core: unknown approximation mode %q (exact|ng|delta-eps|budget)", s)
}

// ApproxSpec carries one query's approximation contract: the mode plus its
// guarantee parameters and node budget. The zero value is exact search.
type ApproxSpec struct {
	Mode ApproxMode
	// Epsilon is the relative distance-error bound of ModeDeltaEps: lower
	// bounds are relaxed by (1+ε), so the answer's k-th distance is within
	// (1+ε) of the true k-th nearest neighbor distance. 0 keeps pruning
	// exact.
	Epsilon float64
	// Delta is the confidence of the ε guarantee in ModeDeltaEps: the
	// traversal may stop early once the best-so-far is provably within
	// (1+ε) of the true answer with probability at least δ (the PAC-NN
	// stopping rule, see EstimateRDelta2). 0 or 1 disables the
	// probabilistic stop, making the ε guarantee deterministic.
	Delta float64
	// NodeBudget stops the traversal after this many node visits
	// (stats.QueryStats.NodesVisited counting); 0 means unlimited. Honored
	// by ModeDeltaEps and ModeBudget.
	NodeBudget int64
	// Seed drives the δ-stop's distance-distribution sample; fixed per
	// engine (core.Options.Seed), so repeated queries are deterministic.
	Seed int64
}

// Exact reports whether the spec selects plain exact search — the zero
// mode, or a δ-ε spec whose parameters all degenerate (ε = 0, δ ∈ {0, 1},
// no budget). Exact specs take the methods' unmodified KNN path.
func (s ApproxSpec) Exact() bool {
	switch s.Mode {
	case ModeExact:
		return true
	case ModeDeltaEps:
		return s.Epsilon == 0 && (s.Delta == 0 || s.Delta == 1) && s.NodeBudget == 0
	case ModeBudget:
		return s.NodeBudget == 0
	}
	return false
}

// Validate reports whether the spec's parameters are usable: ε must be
// non-negative, δ within (0, 1], the budget non-negative, and ε/δ only set
// where they mean something.
func (s ApproxSpec) Validate() error {
	if s.Epsilon < 0 || math.IsNaN(s.Epsilon) || math.IsInf(s.Epsilon, 0) {
		return fmt.Errorf("core: epsilon must be a finite value >= 0, got %v", s.Epsilon)
	}
	if s.Delta < 0 || s.Delta > 1 || math.IsNaN(s.Delta) {
		return fmt.Errorf("core: delta must be within [0, 1], got %v", s.Delta)
	}
	if s.NodeBudget < 0 {
		return fmt.Errorf("core: node budget must be >= 0, got %d", s.NodeBudget)
	}
	return nil
}

// factor returns the squared-space pruning relaxation (1+ε)²: distances are
// compared squared throughout the engine, so a (1+ε) relaxation of true
// distances is a (1+ε)² relaxation of squared ones. 1 for every mode but
// ModeDeltaEps.
func (s ApproxSpec) factor() float64 {
	if s.Mode != ModeDeltaEps || s.Epsilon == 0 {
		return 1
	}
	return (1 + s.Epsilon) * (1 + s.Epsilon)
}

// ApproxSearcher is implemented by methods that answer the full approximate
// mode lattice: ng-approximate, δ-ε-approximate and budget-stopped queries
// through one entry point. KNNApprox with an exact spec must answer
// bit-identically to KNN. The context is honored under the same
// block-granular contract as Method.KNN.
type ApproxSearcher interface {
	Method
	KNNApprox(ctx context.Context, q series.Series, k int, spec ApproxSpec) ([]Match, stats.QueryStats, error)
}

// Pruner is the one pruning/stopping authority of a traversal: it owns the
// (1+ε)-relaxed skip predicate, the node budget, the PAC δ-stop, and
// the visit counter behind stats.QueryStats.NodesVisited. An exact spec
// yields a degenerate pruner whose predicate is bit-identical to the
// unrelaxed comparison (factor 1 multiplies nothing), so the exact and
// approximate query paths share one traversal implementation per method.
// The zero value prunes exactly and never stops; construct with NewPruner.
type Pruner struct {
	factor  float64
	stop2   float64 // (1+ε)²·r_δ²; 0 disables the δ-stop
	budget  int64   // 0 = unlimited
	visits  int64
	stopped string // why the traversal ended early ("" = it didn't)
}

// NewPruner builds the pruner for one query under spec. rdelta2 is the
// squared PAC stopping radius from EstimateRDelta2 (pass 0 when the δ-stop
// is off).
func NewPruner(spec ApproxSpec, rdelta2 float64) Pruner {
	p := Pruner{factor: spec.factor(), budget: spec.NodeBudget}
	if p.factor == 0 {
		p.factor = 1
	}
	if spec.Mode == ModeDeltaEps && spec.Delta > 0 && spec.Delta < 1 && rdelta2 > 0 {
		p.stop2 = p.factor * rdelta2
	}
	return p
}

// Prune reports whether a subtree (or candidate) with squared lower bound
// lb cannot improve the answer beyond the (1+ε) guarantee, given the
// current squared k-th-best bound. With factor 1 this is exactly the
// unrelaxed lb >= bound comparison (no float multiply touches lb), so exact
// traversals keep bit-identical visit decisions.
func (p *Pruner) Prune(lb, bound float64) bool {
	if p.factor == 1 {
		return lb >= bound
	}
	return lb*p.factor >= bound
}

// Visit records one node visit and reports whether the node budget is
// spent, commanding the traversal to stop. Call it once per popped tree
// node / verified candidate.
func (p *Pruner) Visit() bool {
	p.visits++
	if p.budget > 0 && p.visits >= p.budget {
		p.stopped = "nodes"
		return true
	}
	return false
}

// StopSatisfied reports whether the PAC δ-stop fires: the squared
// best-so-far bound has dropped to (1+ε)²·r_δ², at which point the
// best-so-far is within (1+ε) of the true k-th neighbor with probability at
// least δ, so the remaining traversal can be skipped without voiding the
// guarantee. Never fires when the δ-stop is off (δ ∈ {0, 1} or no radius
// estimate).
func (p *Pruner) StopSatisfied(bound float64) bool {
	if p.stop2 > 0 && bound <= p.stop2 {
		p.stopped = "delta"
		return true
	}
	return false
}

// Finish stamps the pruner's accounting — visit count and the early-stop
// cause, if any — onto the query's stats record.
func (p *Pruner) Finish(qs *stats.QueryStats) {
	qs.NodesVisited = p.visits
	qs.EarlyStop = p.stopped
}

// NewQueryPruner builds the pruner for one query against c, estimating the
// PAC stopping radius first when the spec arms the δ-stop (ModeDeltaEps
// with δ strictly inside (0, 1)). This is the one constructor the methods'
// shared traversals call; exact specs produce the degenerate pruner without
// touching the collection.
func NewQueryPruner(c *Collection, q series.Series, spec ApproxSpec, qs *stats.QueryStats) Pruner {
	var rdelta2 float64
	if spec.Mode == ModeDeltaEps && spec.Delta > 0 && spec.Delta < 1 {
		rdelta2 = EstimateRDelta2(c, q, spec.Delta, spec.Seed, qs)
	}
	return NewPruner(spec, rdelta2)
}

// rdeltaSampleSize is how many collection series the δ-stop samples to
// estimate the query's nearest-neighbor distance distribution. 64 true
// distance computations cost far less than the leaf visits the stop saves,
// and the estimate errs conservative (see EstimateRDelta2).
const rdeltaSampleSize = 64

// EstimateRDelta2 estimates r_δ² for one query — the squared PAC stopping
// radius of Ciaccia & Patella's probably-approximately-correct NN queries,
// as used by the sequel paper's δ-ε-approximate extensions.
//
// The estimate follows PAC-NN: sample s collection series (seeded, so
// repeated queries are deterministic), compute their true squared distances
// to the query, and read the empirical distance distribution F̂. Over n
// independent draws the nearest-neighbor distance satisfies
// P(d_NN ≤ r) = 1 − (1 − F(r))ⁿ, so the largest radius with
// P(d_NN < r_δ) ≤ 1 − δ is the t-quantile of F̂ at t = 1 − δ^(1/n). A
// traversal whose best-so-far falls to (1+ε)·r_δ already meets the δ-ε
// guarantee and may stop.
//
// At small n or high δ the quantile index truncates to zero and the
// function returns 0 (δ-stop disabled): the estimate only ever errs on the
// conservative side, trading unrealized savings for a guarantee that holds
// regardless of sampling error. The sampled distance computations are
// charged to qs.DistCalcs; the series are read without I/O charges (Peek),
// matching PAC-NN's offline distribution estimation.
func EstimateRDelta2(c *Collection, q series.Series, delta float64, seed int64, qs *stats.QueryStats) float64 {
	n := c.File.Len()
	if n == 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	s := rdeltaSampleSize
	if s > n {
		s = n
	}
	t := 1 - math.Pow(delta, 1/float64(n))
	j := int(t * float64(s))
	if j <= 0 {
		return 0 // quantile below sample resolution: stay conservative
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	d := make([]float64, s)
	for i := range d {
		d[i] = series.SquaredDist(q, c.File.Peek(rng.Intn(n)))
	}
	qs.DistCalcs += int64(s)
	sort.Float64s(d)
	if j > len(d) {
		j = len(d)
	}
	return d[j-1]
}

// RunQueryApprox is RunQuery for the approximate mode lattice: same
// instrumentation bracket, with the answering mode and its guarantee
// parameters stamped onto the stats record. An exact spec routes through
// the method's plain KNN (stamped "exact"), so callers can thread one spec
// unconditionally.
func RunQueryApprox(ctx context.Context, m Method, c *Collection, q series.Series, k int, spec ApproxSpec) ([]Match, stats.QueryStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, stats.QueryStats{}, err
	}
	if spec.Exact() {
		matches, qs, err := RunQuery(ctx, m, c, q, k)
		if err == nil {
			qs.Mode = ModeExact.String()
		}
		return matches, qs, err
	}
	as, ok := m.(ApproxSearcher)
	if !ok {
		return nil, stats.QueryStats{}, fmt.Errorf("%w: method %s answers only exact queries", ErrApproxUnsupported, m.Name())
	}
	start := time.Now()
	matches, qs, err := as.KNNApprox(ctx, q, k, spec)
	finishQueryStats(c, start, &qs)
	if err == nil {
		qs.Mode = spec.Mode.String()
		if spec.Mode == ModeDeltaEps {
			qs.Epsilon, qs.Delta = spec.Epsilon, spec.Delta
		}
	}
	return matches, qs, err
}
