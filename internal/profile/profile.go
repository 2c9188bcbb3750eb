// Package profile implements STOMP-style matrix-profile computation over one
// long data series: for every length-m window, the Z-normalized Euclidean
// distance to its nearest non-trivial neighbor window, plus top-k motif-pair
// and discord extraction from the finished profile.
//
// The all-pairs distance matrix is walked along its diagonals. On diagonal
// d, the dot product QT(i, i+d) of windows i and i+d obeys the O(1) STOMP
// recurrence
//
//	QT(i+1, i+d+1) = QT(i, i+d) − x[i]·x[i+d] + x[i+m]·x[i+d+m]
//
// so one O(m) dot product seeds the diagonal and every further cell costs a
// constant: O(n·m) dot work for the whole profile instead of the brute
// force's O(n²·m). Z-normalized distances come from the dots through rolling
// window mean/std statistics (from prefix sums of x and x²):
//
//	d²(i, j) = 2m·(1 − (QT(i,j) − m·μ_i·μ_j) / (m·σ_i·σ_j))
//
// Diagonals are independent, which is what makes the computation parallel:
// workers each walk a contiguous range of diagonals into their own partial
// profile, and partials merge min-wise with a deterministic tie rule, so the
// parallel result is bit-identical to the serial pass (see Compute).
package profile

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"hydra/internal/core"
	"hydra/internal/series"
)

// Options configures one profile computation.
type Options struct {
	// Workers is the diagonal-range parallelism: 0 or 1 computes the profile
	// serially, larger values split the diagonals across that many workers,
	// negative selects GOMAXPROCS. Every setting produces bit-identical
	// profiles.
	Workers int
	// ExclusionZone suppresses trivial matches: windows j with |i−j| ≤
	// ExclusionZone never count as neighbors of window i. Negative selects
	// the conventional default m/4; 0 excludes only the self-match.
	ExclusionZone int
}

// DefaultExclusion returns the conventional exclusion zone for window
// length m: m/4, the radius within which overlapping windows are considered
// trivial matches of each other.
func DefaultExclusion(m int) int { return m / 4 }

// Stats counts the work of one profile computation.
type Stats struct {
	// Windows is the number of length-m windows (profile positions).
	Windows int
	// Diagonals is the number of diagonals walked (those beyond the
	// exclusion zone).
	Diagonals int
	// Pairs is the number of window pairs scored — one per cell of the
	// walked diagonals.
	Pairs int64
	// Workers is the resolved parallelism the computation ran with.
	Workers int
}

// Profile is a finished matrix profile: for every window offset i, the
// Z-normalized Euclidean distance to — and offset of — its nearest neighbor
// window outside the exclusion zone.
type Profile struct {
	// M is the window length.
	M int
	// Exclusion is the applied exclusion zone (see Options.ExclusionZone).
	Exclusion int
	// Dist[i] is the Z-normalized Euclidean distance from window i to its
	// nearest non-trivial neighbor; +Inf when no window lies outside the
	// exclusion zone.
	Dist []float64
	// Neighbor[i] is the offset of that nearest neighbor; −1 when none
	// exists. Ties on distance resolve to the smallest neighbor offset, so
	// the profile is a deterministic function of the input.
	Neighbor []int
	// Stats counts the computation's work.
	Stats Stats
}

// sigEps is the zero-σ guard of the distance formula's denominator. Window
// constancy itself is decided exactly (sliding min == max), not by this
// threshold, so rolling-statistics cancellation noise can never reclassify
// a constant window; the guard only keeps a genuinely non-constant window
// with a denormal-tiny σ from dividing to ±Inf.
const sigEps = 1e-300

// Compute returns the matrix profile of long with window length m.
//
// Zero-variance (constant) windows follow the suite's Z-normalization
// convention (series.ZNormalize): a constant window normalizes to the zero
// vector, so two constant windows are at distance 0 and a constant window is
// at distance √m from any non-constant one. Constancy is decided exactly —
// a window is constant iff its values are all equal — so the classification
// cannot drift with the rolling statistics' rounding.
//
// The context is polled cooperatively once per core.CancelBlock cells and
// between diagonals; after a cancel every worker stops within one block and
// Compute returns ctx.Err(). Parallel runs (Options.Workers) are
// bit-identical to the serial pass: each diagonal's recurrence is one
// worker's sequential walk regardless of how diagonals are distributed, and
// the min-wise partial-profile merge resolves distance ties to the smallest
// neighbor offset — an order-free rule, so the merged argmin never depends
// on worker count or scheduling.
func Compute(ctx context.Context, long series.Series, m int, opts Options) (*Profile, error) {
	if m <= 0 {
		return nil, fmt.Errorf("profile: window length must be positive, got %d", m)
	}
	if m > len(long) {
		return nil, fmt.Errorf("profile: window %d longer than series %d", m, len(long))
	}
	excl := opts.ExclusionZone
	if excl < 0 {
		excl = DefaultExclusion(m)
	}
	n := len(long) - m + 1
	p := &Profile{
		M:         m,
		Exclusion: excl,
		Dist:      make([]float64, n),
		Neighbor:  make([]int, n),
	}
	for i := range p.Dist {
		p.Dist[i] = math.Inf(1)
		p.Neighbor[i] = -1
	}
	p.Stats.Windows = n

	firstDiag := excl + 1
	if firstDiag > n { // no pair of windows lies outside the exclusion zone
		p.Stats.Workers = 1
		return p, nil
	}
	diags := n - firstDiag
	p.Stats.Diagonals = diags
	for d := firstDiag; d < n; d++ {
		p.Stats.Pairs += int64(n - d)
	}

	st := newWindowStats(long, m)
	workers := opts.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > diags {
		workers = diags
	}
	if workers <= 1 {
		p.Stats.Workers = 1
		part := newPartial(n)
		if err := part.walkDiagonals(ctx, st, firstDiag, n); err != nil {
			return nil, err
		}
		part.fold(p)
		p.finishDist()
		return p, nil
	}
	p.Stats.Workers = workers

	// Chunk the diagonal range contiguously. Early diagonals are the longest
	// (diagonal d has n−d cells), so balance by cell count, not by diagonal
	// count: each worker takes diagonals until it holds ~1/workers of the
	// remaining cells.
	bounds := diagonalChunks(firstDiag, n, workers)
	parts := make([]*partial, len(bounds)-1)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = newPartial(n)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = parts[w].walkDiagonals(ctx, st, bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, part := range parts {
		part.fold(p)
	}
	p.finishDist()
	return p, nil
}

// diagonalChunks splits the diagonal range [lo, hi) into up to workers
// contiguous sub-ranges of roughly equal cell count (diagonal d carries
// hi−d cells). The returned bounds have len ≤ workers+1, start at lo and
// end at hi.
func diagonalChunks(lo, hi, workers int) []int {
	var total int64
	for d := lo; d < hi; d++ {
		total += int64(hi - d)
	}
	bounds := []int{lo}
	var acc int64
	target := total / int64(workers)
	for d := lo; d < hi && len(bounds) < workers; d++ {
		acc += int64(hi - d)
		if acc >= target {
			bounds = append(bounds, d+1)
			acc = 0
		}
	}
	if bounds[len(bounds)-1] != hi {
		bounds = append(bounds, hi)
	} else if len(bounds) == 1 {
		bounds = append(bounds, hi)
	}
	return bounds
}

// windowStats is the precomputed per-window state shared read-only by every
// worker: the float64 copy of the series, per-window mean and σ from prefix
// sums, and the exact constancy flags from a sliding min/max pass.
type windowStats struct {
	x        []float64
	m        int
	mu       []float64
	sig      []float64
	constant []bool
}

func newWindowStats(long series.Series, m int) *windowStats {
	n := len(long) - m + 1
	st := &windowStats{
		x:        make([]float64, len(long)),
		m:        m,
		mu:       make([]float64, n),
		sig:      make([]float64, n),
		constant: make([]bool, n),
	}
	for i, v := range long {
		st.x[i] = float64(v)
	}
	prefix := make([]float64, len(long)+1)
	prefix2 := make([]float64, len(long)+1)
	for i, v := range st.x {
		prefix[i+1] = prefix[i] + v
		prefix2[i+1] = prefix2[i] + v*v
	}
	fm := float64(m)
	for i := 0; i < n; i++ {
		sum := prefix[i+m] - prefix[i]
		sum2 := prefix2[i+m] - prefix2[i]
		mu := sum / fm
		varw := sum2/fm - mu*mu
		if varw < 0 {
			varw = 0
		}
		st.mu[i] = mu
		st.sig[i] = math.Sqrt(varw)
	}
	slidingConstant(long, m, st.constant)
	return st
}

// slidingConstant marks the windows whose values are all equal, exactly: a
// window is constant iff its sliding maximum equals its sliding minimum.
// The monotonic-deque sliding extrema are O(n) total and operate on the raw
// float32 values, so the answer carries no accumulated rounding — unlike a
// σ-threshold test, which cancellation noise in the prefix sums could flip.
func slidingConstant(long series.Series, m int, out []bool) {
	n := len(long) - m + 1
	maxq := make([]int, 0, m) // indexes of decreasing values
	minq := make([]int, 0, m) // indexes of increasing values
	for i, v := range long {
		for len(maxq) > 0 && long[maxq[len(maxq)-1]] <= v {
			maxq = maxq[:len(maxq)-1]
		}
		maxq = append(maxq, i)
		for len(minq) > 0 && long[minq[len(minq)-1]] >= v {
			minq = minq[:len(minq)-1]
		}
		minq = append(minq, i)
		lo := i - m + 1
		if lo < 0 {
			continue
		}
		if maxq[0] < lo {
			maxq = maxq[1:]
		}
		if minq[0] < lo {
			minq = minq[1:]
		}
		if lo < n {
			out[lo] = long[maxq[0]] == long[minq[0]]
		}
	}
}

// partial is one worker's half-finished profile: the best (distance²,
// neighbor) seen per window over the worker's diagonal range. Distances stay
// squared until the final fold — sqrt is monotone, so comparing squares picks
// the same argmin, and folding compares the same float64s every worker
// produced.
type partial struct {
	dist2    []float64
	neighbor []int
}

func newPartial(n int) *partial {
	p := &partial{dist2: make([]float64, n), neighbor: make([]int, n)}
	for i := range p.dist2 {
		p.dist2[i] = math.Inf(1)
		p.neighbor[i] = -1
	}
	return p
}

// update folds one scored pair into the partial. The tie rule (strict
// improvement, or equal distance with a smaller neighbor offset) makes the
// final value of each position the lexicographic minimum over all its
// (distance², neighbor) pairs — independent of visit order, which is what
// makes the parallel merge bit-identical to the serial walk.
func (p *partial) update(i, j int, d2 float64) {
	if d2 < p.dist2[i] || (d2 == p.dist2[i] && j < p.neighbor[i]) {
		p.dist2[i] = d2
		p.neighbor[i] = j
	}
}

// walkDiagonals streams the STOMP recurrence over diagonals [lo, hi),
// scoring every cell into the partial. Each diagonal is seeded with one
// direct O(m) dot product and then advanced in O(1) per cell; the per-cell
// float64 operations are identical for every decomposition of the diagonal
// range, so cell values are too.
func (p *partial) walkDiagonals(ctx context.Context, st *windowStats, lo, hi int) error {
	n := len(st.mu)
	m := st.m
	fm := float64(m)
	twoM := 2 * fm
	budget := core.CancelBlock
	for d := lo; d < hi; d++ {
		if err := core.Canceled(ctx); err != nil {
			return err
		}
		qt := dot64(st.x[:m], st.x[d:d+m])
		for i, j := 0, d; j < n; i, j = i+1, j+1 {
			if i > 0 {
				qt += st.x[i+m-1]*st.x[j+m-1] - st.x[i-1]*st.x[j-1]
			}
			var d2 float64
			switch {
			case st.constant[i] && st.constant[j]:
				d2 = 0 // both normalize to the zero vector
			case st.constant[i] || st.constant[j]:
				d2 = fm // zero vector against a unit-variance window
			default:
				sig := fm * st.sig[i] * st.sig[j]
				if sig < sigEps {
					sig = sigEps
				}
				d2 = twoM * (1 - (qt-fm*st.mu[i]*st.mu[j])/sig)
				if d2 < 0 {
					d2 = 0
				}
			}
			p.update(i, j, d2)
			p.update(j, i, d2)
			if budget--; budget <= 0 {
				budget = core.CancelBlock
				if err := core.Canceled(ctx); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// fold merges the partial into the profile min-wise under the same tie rule
// as update. Dist still holds squares at this point — Compute folds every
// partial first and converts with finishDist once, so all comparisons are
// square-vs-square. Equal inputs produce equal float64 squares in every
// partial, so folding in any order lands the same (distance, neighbor) per
// position as the serial pass.
func (p *partial) fold(into *Profile) {
	for i := range p.dist2 {
		d2, j := p.dist2[i], p.neighbor[i]
		if j < 0 {
			continue
		}
		if d2 < into.Dist[i] || (d2 == into.Dist[i] && j < into.Neighbor[i]) {
			into.Dist[i] = d2
			into.Neighbor[i] = j
		}
	}
}

// finishDist converts the folded squared distances to Z-normalized
// Euclidean distances in place.
func (p *Profile) finishDist() {
	for i, d2 := range p.Dist {
		if !math.IsInf(d2, 1) {
			p.Dist[i] = math.Sqrt(d2)
		}
	}
}

// dot64 is the seed dot product of one diagonal, accumulated left to right
// in float64 — the one fixed evaluation order both the serial and every
// parallel walk share.
func dot64(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}
