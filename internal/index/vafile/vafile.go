// Package vafile implements the VA+file (Ferhatosmanoglu et al.), the
// quantization-based filter-file method: every series is represented by a
// compact approximation code in a filter file; queries first scan the filter
// file sequentially, computing lower bounds, then visit surviving candidates
// in the raw file in ascending lower-bound order until the bound exceeds the
// k-th best distance — the classical exact VA-file near-neighbor algorithm.
//
// Following the paper's re-implementation, features are DFT coefficients
// (not KLT), the bit budget is allocated non-uniformly by dimension energy,
// and per-dimension decision intervals come from k-means (package vaq).
package vafile

import (
	"context"
	"fmt"
	"math"

	"hydra/internal/core"
	"hydra/internal/series"
	"hydra/internal/simd"
	"hydra/internal/stats"
	"hydra/internal/transform/dft"
	"hydra/internal/transform/vaq"
)

func init() {
	core.Register("VA+file", func(opts core.Options) core.Method { return New(opts) })
}

// Index is the VA+file method.
type Index struct {
	opts  core.Options
	c     *core.Collection
	xform *dft.Transform
	quant *vaq.Quantizer
	// codes is the approximation file: every series' cell indices
	// back-to-back with stride Dims. Use code for per-series views.
	codes []uint8
	// codesT is the dimension-major (transposed) copy of codes — dimension
	// d's cells for all series are contiguous at codesT[d*n : (d+1)*n] —
	// the array the batched lower-bound kernel
	// (vaq.Quantizer.LowerBoundBatch) streams during phase 1.
	codesT []uint8
	// pool hands each in-flight query its reusable scratch buffers.
	pool core.ScratchPool
}

// code returns series i's approximation code (a view; do not mutate).
func (ix *Index) code(i int) []uint8 {
	d := ix.quant.Dims()
	return ix.codes[i*d : (i+1)*d : (i+1)*d]
}

// numCodes returns the number of encoded series.
func (ix *Index) numCodes() int {
	if d := ix.quant.Dims(); d > 0 {
		return len(ix.codes) / d
	}
	return 0
}

// New creates a VA+file with the given options.
func New(opts core.Options) *Index { return &Index{opts: opts} }

// Name implements core.Method.
func (ix *Index) Name() string { return "VA+file" }

// Build implements core.Method: transform, train the quantizer, and encode
// every series into the approximation file.
func (ix *Index) Build(c *core.Collection) error {
	if ix.c != nil {
		return fmt.Errorf("vafile: already built")
	}
	ix.c = c
	ix.opts = ix.opts.WithDefaults(c.File.Len())
	n := c.File.SeriesLen()
	if n == 0 || c.File.Len() == 0 {
		return fmt.Errorf("vafile: empty collection")
	}
	ix.xform = dft.New(n, ix.opts.Segments)

	// One sequential pass over the raw file to compute features.
	c.File.ChargeFullScan()
	d := ix.xform.Dims()
	flat := make([]float64, c.File.Len()*d)
	buf := make([]complex128, n)
	feats := make([][]float64, c.File.Len())
	for i := range feats {
		feats[i] = ix.xform.ApplyInto(c.File.Peek(i), flat[i*d:(i+1)*d:(i+1)*d], buf)
	}

	// Train on a sample (all, if SampleSize is 0 or larger than N).
	train := feats
	if ix.opts.SampleSize > 0 && ix.opts.SampleSize < len(feats) {
		step := len(feats) / ix.opts.SampleSize
		train = make([][]float64, 0, ix.opts.SampleSize)
		for i := 0; i < len(feats); i += step {
			train = append(train, feats[i])
		}
	}
	q, err := vaq.Train(train, ix.xform.Dims()*ix.opts.VAQBitsPerDim)
	if err != nil {
		return fmt.Errorf("vafile: training quantizer: %w", err)
	}
	ix.quant = q

	ix.codes = make([]uint8, len(feats)*q.Dims())
	for i, f := range feats {
		copy(ix.code(i), q.Encode(f))
	}
	ix.codesT = make([]uint8, len(ix.codes))
	simd.Transpose8(ix.codes, q.Dims(), ix.codesT)
	// Writing the approximation file is one sequential write.
	c.Counters.ChargeSeq(ix.ApproxFileBytes())
	return nil
}

// ApproxFileBytes returns the on-disk size of the approximation file.
func (ix *Index) ApproxFileBytes() int64 {
	return int64(ix.numCodes()) * ix.quant.ApproxBytes()
}

// KNN implements core.Method. Phase 1 scores the whole approximation file
// with the batched table kernel over the flat code array; all per-query
// state comes from the index's scratch pool. Bounds, visit order and
// answers are bit-identical to the per-code formulation.
func (ix *Index) KNN(ctx context.Context, q series.Series, k int) ([]core.Match, stats.QueryStats, error) {
	return ix.search(ctx, q, k, core.ApproxSpec{})
}

// KNNApprox implements core.ApproxSearcher: the full approximate mode
// lattice over the one two-phase pass KNN uses, so an exact spec answers
// bit-identically to KNN.
func (ix *Index) KNNApprox(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, stats.QueryStats{}, err
	}
	return ix.search(ctx, q, k, spec)
}

// search is the one two-phase pass behind every query mode. The spec's
// pruner owns all skip/stop decisions: an exact spec keeps the unrelaxed
// lb >= bound break (bit-identical answers), a δ-ε spec relaxes it by
// (1+ε)² and may stop phase 2 at the PAC radius or a budget. The VA+file
// has no tree, so its ng mode is the filter-file analog of a first-leaf
// visit: phase 1 runs in full, then only the k best-bounded candidates are
// verified. NodesVisited counts every phase-2 candidate actually verified.
func (ix *Index) search(ctx context.Context, q series.Series, k int, spec core.ApproxSpec) ([]core.Match, stats.QueryStats, error) {
	var qs stats.QueryStats
	if ix.c == nil {
		return nil, qs, fmt.Errorf("vafile: method not built")
	}
	if len(q) != ix.c.File.SeriesLen() {
		return nil, qs, fmt.Errorf("vafile: query length %d, collection length %d", len(q), ix.c.File.SeriesLen())
	}
	if err := core.Canceled(ctx); err != nil {
		return nil, qs, err
	}
	sc := ix.pool.Get()
	defer ix.pool.Put(sc)
	qf := ix.xform.ApplyInto(q, sc.Summary(ix.xform.Dims()), sc.Complex(len(q)))
	ord := sc.Order(q)
	pr := core.NewQueryPruner(ix.c, q, spec, &qs)

	// Phase 1: sequential scan of the approximation file, one table lookup
	// per (candidate, dimension).
	cur := ix.c.File.Cursor()
	cur.ChargeSeq(ix.ApproxFileBytes())
	n := ix.numCodes()
	table := sc.Table(ix.quant.TableLen())
	ix.quant.LowerBoundTable(qf, table)
	lbs := sc.LB(n)
	ix.quant.LowerBoundBatch(table, ix.codesT, lbs)
	qs.LBCalcs += int64(n)
	queue := sc.QueueByBound(lbs, k)
	ngBudget := n
	if spec.Mode == core.ModeNG && k < ngBudget {
		ngBudget = k
	}

	// Phase 2: visit raw series in ascending lower-bound order until the
	// bound prunes the next one. The k best-bounded candidates come from one
	// pass over the bounds; the queue behind them holds only what the bound
	// they leave has not already ruled out; an ng query (k up to the
	// queue's selection cap) ends before it is built.
	set := sc.KNN(k)
	for oi := 0; oi < ngBudget; oi++ {
		if oi%core.CancelBlock == 0 {
			if err := core.Canceled(ctx); err != nil {
				qs.IO = cur.Flush()
				return nil, qs, err
			}
		}
		id, ok := queue.Next(&pr, set.Bound())
		if !ok {
			break
		}
		raw := cur.Read(id) // charged as a seek (ascending-LB order is scattered)
		d := series.SquaredDistEAOrderedBlocked(q, raw, ord, set.Bound())
		qs.DistCalcs++
		qs.RawSeriesExamined++
		set.Add(id, d)
		if pr.Visit() || pr.StopSatisfied(set.Bound()) {
			break
		}
	}
	pr.Finish(&qs)
	qs.IO = cur.Flush()
	return set.Results(), qs, nil
}

// LeafMembers implements core.LeafBounder: the VA+file has no tree, so —
// as the paper does when comparing fill factors — each approximation cell
// (here: each series) acts as its own region. For TLB purposes we group
// series into pages of quantizer codes.
func (ix *Index) LeafMembers() [][]int {
	out := make([][]int, ix.numCodes())
	for i := range out {
		out[i] = []int{i}
	}
	return out
}

// LeafLB implements core.LeafBounder.
func (ix *Index) LeafLB(q series.Series, leaf int) float64 {
	qf := ix.xform.Apply(q)
	return math.Sqrt(ix.quant.LowerBound(qf, ix.code(leaf)))
}
