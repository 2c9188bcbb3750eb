// Package stepwise implements the Stepwise method of Kashyap & Karras
// ("Scalable kNN search on vertically stored time series"): DHWT
// coefficients are stored vertically, level by level; a query is filtered
// through the levels one at a time using both lower- and upper-bounding
// distances, and the final refinement computes true Euclidean distances on
// the raw series of the surviving candidates.
//
// Bounds: with the orthonormal Haar transform, distances are preserved, so
// after processing a coefficient prefix P the distance decomposes into the
// prefix part plus the distance in the orthogonal complement, which the
// reverse/forward triangle inequality brackets with the residual energies:
//
//	LB = Σ_P (Q_i−C_i)² + (√Eq − √Ec)²
//	UB = Σ_P (Q_i−C_i)² + (√Eq + √Ec)²
//
// where Eq, Ec are the query/candidate energies beyond the prefix. Following
// the paper's adaptation, the pre-computed (residual energy) sums are kept
// in memory and queries are answered one at a time.
package stepwise

import (
	"context"
	"fmt"
	"math"
	"sort"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/stats"
	"hydra/internal/storage"
	"hydra/internal/transform/dhwt"
)

func init() {
	core.Register("Stepwise", func(opts core.Options) core.Method { return New(opts) })
}

// seqReadThreshold is the active-candidate fraction above which a level is
// read sequentially in full; below it, surviving candidates are located with
// random I/O (the behaviour the paper observed dominating Stepwise's cost).
const seqReadThreshold = 0.10

// Index is the Stepwise method.
type Index struct {
	opts core.Options
	c    *core.Collection
	// coeffs[i] holds the full Haar coefficient vector of series i
	// (conceptually stored vertically on disk; the charge model below
	// accounts for level-major access).
	coeffs [][]float64
	// resid[i][l] is series i's coefficient energy beyond filter level l
	// (these are the in-memory "pre-computed sums").
	resid [][]float64
	// filterLevels is the number of DHWT levels used for filtering before
	// refinement (covering Options.Segments coefficients).
	filterLevels int
	padded       int
}

// New creates the Stepwise method.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "Stepwise" }

// Build implements core.Method: the pre-processing step that transforms the
// collection and stores coefficients vertically.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("stepwise: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	if c.File.Len() == 0 {
		return fmt.Errorf("stepwise: empty collection")
	}

	c.File.ChargeFullScan()
	n := c.File.Len()
	ix.coeffs = make([][]float64, n)
	for i := 0; i < n; i++ {
		ix.coeffs[i] = dhwt.Transform(c.File.Peek(i))
	}
	ix.padded = len(ix.coeffs[0])

	// Choose how many levels the filter phase covers: enough levels to span
	// Options.Segments coefficients (matching the 16-dimension budget all
	// fixed summarizations use in the paper).
	covered := 0
	ix.filterLevels = 0
	for lvl := 0; covered < ix.opts.Segments && covered < ix.padded; lvl++ {
		lo, hi := dhwt.LevelRange(lvl)
		covered = hi
		ix.filterLevels = lvl + 1
		_ = lo
	}

	ix.resid = make([][]float64, n)
	for i := range ix.coeffs {
		ix.resid[i] = residuals(ix.coeffs[i], ix.filterLevels)
	}
	// Writing the vertically organized coefficient files: one sequential
	// write of the transformed data.
	c.Counters.ChargeSeq(int64(n) * int64(ix.padded) * storage.BytesPerValue)
	return nil
}

// residuals returns, for each filter level l (0..levels), the energy of the
// coefficients strictly beyond level l-1's end — i.e., resid[l] is the
// energy not yet seen after processing levels 0..l-1.
func residuals(coeffs []float64, levels int) []float64 {
	out := make([]float64, levels+1)
	var total float64
	for _, v := range coeffs {
		total += v * v
	}
	out[0] = total
	for lvl := 0; lvl < levels; lvl++ {
		lo, hi := dhwt.LevelRange(lvl)
		var lvlEnergy float64
		for i := lo; i < hi && i < len(coeffs); i++ {
			lvlEnergy += coeffs[i] * coeffs[i]
		}
		out[lvl+1] = out[lvl] - lvlEnergy
		if out[lvl+1] < 0 {
			out[lvl+1] = 0
		}
	}
	return out
}

type cand struct {
	id      int
	partial float64 // squared prefix distance
	lb      float64
	ub      float64
}

// KNN implements core.Method.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("stepwise: method not built")
	}
	f := ix.c.File
	if len(q) != f.SeriesLen() {
		return nil, qs, fmt.Errorf("stepwise: query length %d, collection length %d", len(q), f.SeriesLen())
	}
	qc := dhwt.Transform(q)
	qResid := residuals(qc, ix.filterLevels)

	cur := f.Cursor()
	n := cur.Len()
	active := make([]cand, n)
	for i := range active {
		active[i] = cand{id: i}
	}

	// Filter phase: one level at a time.
	for lvl := 0; lvl < ix.filterLevels; lvl++ {
		if err := core.Canceled(ctx); err != nil {
			qs.IO = cur.Flush()
			return nil, qs, err
		}
		lo, hi := dhwt.LevelRange(lvl)
		levelBytes := int64(hi-lo) * storage.BytesPerValue

		if float64(len(active)) >= seqReadThreshold*float64(n) {
			// Read the whole level file sequentially.
			cur.ChargeSeq(int64(n) * levelBytes)
		} else {
			// Locate each surviving candidate's entries: random I/O.
			for range active {
				cur.ChargeRand(levelBytes)
			}
		}

		sqEq := math.Sqrt(qResid[lvl+1])
		for j := range active {
			c := &active[j]
			cc := ix.coeffs[c.id]
			for i := lo; i < hi; i++ {
				d := qc[i] - cc[i]
				c.partial += d * d
			}
			sqEc := math.Sqrt(ix.resid[c.id][lvl+1])
			dd := sqEq - sqEc
			c.lb = c.partial + dd*dd
			ss := sqEq + sqEc
			c.ub = c.partial + ss*ss
			qs.LBCalcs++
		}

		// Pruning bound: the k-th smallest upper bound.
		bound := kthSmallestUB(active, k)
		keep := active[:0]
		for _, c := range active {
			if c.lb <= bound {
				keep = append(keep, c)
			}
		}
		active = keep
	}

	// Refinement: true distances on raw data, cheapest lower bounds first.
	sort.Slice(active, func(a, b int) bool {
		if active[a].lb != active[b].lb {
			return active[a].lb < active[b].lb
		}
		return active[a].id < active[b].id
	})
	ord := series.NewOrder(q)
	set := core.NewKNNSet(k)
	for ci, c := range active {
		if ci%core.CancelBlock == 0 {
			if err := core.Canceled(ctx); err != nil {
				qs.IO = cur.Flush()
				return nil, qs, err
			}
		}
		if c.lb >= set.Bound() {
			break
		}
		raw := cur.Read(c.id)
		d := series.SquaredDistEAOrderedBlocked(q, raw, ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(c.id, d)
	}
	qs.IO = cur.Flush()
	return set.Results(), qs, nil
}

// kthSmallestUB returns the k-th smallest upper bound among candidates
// (+Inf if fewer than k).
func kthSmallestUB(cands []cand, k int) float64 {
	if len(cands) < k {
		return math.Inf(1)
	}
	ubs := make([]float64, len(cands))
	for i, c := range cands {
		ubs[i] = c.ub
	}
	sort.Float64s(ubs)
	return ubs[k-1]
}
